//go:build integration

// Package cmd pins what an operator sees of the seven binaries without
// reading their code: the flag surface (names, defaults, help text) and the
// exit-code table. Build-tagged so the tier-1 suite stays fast; CI runs it
// via -tags integration.
package cmd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sage/internal/core"
	"sage/internal/golden"
	"sage/internal/gr"
	"sage/internal/nn"
)

var binaries = []string{
	"sage-bench", "sage-collect", "sage-coord", "sage-eval", "sage-loop", "sage-serve", "sage-train",
}

// binDir holds every binary under cmd/, built once by TestMain.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sage-cmd-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// saveTinyModel writes a small untrained model into dir.
func saveTinyModel(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "good.model")
	m := &core.Model{
		Policy: nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 8, Hidden: 8, ResBlocks: 1, K: 2, Seed: 1}),
		Mask:   gr.MaskFull(),
		GR:     gr.Config{}.Fill(),
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// Every binary's -h output, minus the "Usage of <path>:" line, is its flag
// surface (testdata/<binary>.flags.golden). A refactor of the mains must
// leave it byte-identical.
func TestFlagSurface(t *testing.T) {
	for _, name := range binaries {
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(binDir, name), "-h")
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("-h: %v\n%s", err, stderr.String())
			}
			_, got, ok := strings.Cut(stderr.String(), "\n")
			if !ok || !strings.HasPrefix(stderr.String(), "Usage of ") {
				t.Fatalf("-h did not print a usage header:\n%s", stderr.String())
			}
			golden.Check(t, name+".flags", got)
		})
	}
}

// The repo-wide exit-code table, exercised through the real binaries.
func TestExitCodeTable(t *testing.T) {
	tmp := t.TempDir()

	good := saveTinyModel(t, tmp)
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	corrupt := filepath.Join(tmp, "corrupt.model")
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(tmp, "nope.model")
	sock := filepath.Join(tmp, "s.sock")
	loopDirs := []string{"-spool", filepath.Join(tmp, "spool"), "-state", filepath.Join(tmp, "state"), "-registry", filepath.Join(tmp, "reg")}

	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		{"bench unknown flag", "sage-bench", []string{"-no-such-flag"}, 2},
		{"collect unknown flag", "sage-collect", []string{"-no-such-flag"}, 2},
		{"coord unknown flag", "sage-coord", []string{"-no-such-flag"}, 2},
		{"eval unknown flag", "sage-eval", []string{"-no-such-flag"}, 2},
		{"loop unknown flag", "sage-loop", []string{"-no-such-flag"}, 2},
		{"serve unknown flag", "sage-serve", []string{"-no-such-flag"}, 2},
		{"train unknown flag", "sage-train", []string{"-no-such-flag"}, 2},

		{"bench unknown sizing", "sage-bench", []string{"-sizing", "bogus"}, 2},
		{"bench unknown experiment", "sage-bench", []string{"-exp", "fig99"}, 2},
		{"collect unknown level", "sage-collect", []string{"-level", "bogus", "-out", filepath.Join(tmp, "p.gob.gz")}, 2},
		{"collect unknown scheme", "sage-collect", []string{"-schemes", "nosuch", "-out", filepath.Join(tmp, "p.gob.gz")}, 2},
		{"collect agent bad address", "sage-collect", []string{"-agent", "no-port"}, 2},
		{"coord unknown mode", "sage-coord", []string{"-mode", "bogus"}, 2},
		{"coord bad listen address", "sage-coord", []string{"-listen", "no-port"}, 2},
		{"coord bad chaos spec", "sage-coord", []string{"-chaos", "bogus"}, 2},
		{"coord train needs two workers", "sage-coord", []string{"-mode", "train", "-train-workers", "1"}, 2},
		{"eval trace without scenario", "sage-eval", []string{"-trace", filepath.Join(tmp, "t.jsonl")}, 2},
		{"eval unknown experiment", "sage-eval", []string{"-model", good, "-experiment", "bogus"}, 2},
		{"eval unknown scenario", "sage-eval", []string{"-model", good, "-scenario", "bogus"}, 2},
		{"loop missing required dirs", "sage-loop", nil, 2},
		{"loop unknown mask", "sage-loop", append([]string{"-mask", "bogus"}, loopDirs...), 2},
		{"loop unknown gate level", "sage-loop", append([]string{"-gate-level", "bogus"}, loopDirs...), 2},
		{"train worker bad address", "sage-train", []string{"-worker", "no-port"}, 2},

		{"serve model with registry", "sage-serve", []string{"-socket", sock, "-model", good, "-registry", filepath.Join(tmp, "reg")}, 2},
		{"serve missing model", "sage-serve", []string{"-socket", sock, "-model", missing}, 3},
		{"serve corrupt model", "sage-serve", []string{"-socket", sock, "-model", corrupt}, 3},
		{"serve registry without incumbent", "sage-serve", []string{"-socket", sock, "-registry", filepath.Join(tmp, "empty-reg")}, 3},
		{"loop corrupt offline pool", "sage-loop", append([]string{"-pool", corrupt}, loopDirs...), 3},

		// The two classifiers differ on a missing file: a model the serving
		// daemon cannot find is an integrity failure, anywhere else it is a
		// plain fatal error.
		{"loop missing offline pool", "sage-loop", append([]string{"-pool", missing}, loopDirs...), 1},
		{"eval missing model", "sage-eval", []string{"-model", missing}, 1},
		{"train missing pool", "sage-train", []string{"-pool", missing}, 1},
		{"collect doctor missing pool", "sage-collect", []string{"-doctor", missing}, 1},
		{"serve health with no daemon", "sage-serve", []string{"-socket", sock, "-health"}, 1},
		{"bench bad pprof address", "sage-bench", []string{"-list", "-pprof", "no-port"}, 1},

		{"bench list", "sage-bench", []string{"-list"}, 0},

		// Rows that read differently before the mains moved onto
		// internal/cli: an unknown -level silently evaluated the tiny grid
		// and exited 0, and a zero period divided by zero inside the
		// progress callback.
		{"eval unknown level", "sage-eval", []string{"-model", good, "-level", "bogus", "-scenario", "flat-24mbps-20ms-1bdp"}, 2},
		{"train zero log period", "sage-train", []string{"-pool", missing, "-log-every", "0"}, 2},
		{"train zero checkpoint period", "sage-train", []string{"-pool", missing, "-checkpoint-every", "0"}, 2},
		{"coord zero log period", "sage-coord", []string{"-mode", "train", "-pool", missing, "-log-every", "0"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(binDir, c.bin), c.args...).CombinedOutput()
			if got := exitCode(err); got != c.want {
				t.Errorf("%s %v: exit %d, want %d\n%s", c.bin, c.args, got, c.want, out)
			}
		})
	}
}

// sage-eval used to open -metrics only after the whole league had run, so a
// bad path cost minutes of rollouts; every sink now opens before any work.
func TestSinkOpensBeforeTheLeague(t *testing.T) {
	tmp := t.TempDir()
	model := saveTinyModel(t, tmp)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, filepath.Join(binDir, "sage-eval"),
		"-model", model, "-metrics", filepath.Join(tmp, "no-such-dir", "league.jsonl")).CombinedOutput()
	if exitCode(err) != 1 || !strings.Contains(string(out), "metrics file") || strings.Contains(string(out), "scheme") {
		t.Fatalf("exit %d, want 1 from the sink before any league output\n%s", exitCode(err), out)
	}
}

// syncBuffer collects a child's output while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// SIGINT is a graceful drain, exit 130, for a serving daemon and for an idle
// loop daemon alike. Each prints its ready line after its signal handling is
// in place.
func TestSignalDrainExits130(t *testing.T) {
	tmp := t.TempDir()
	cases := []struct {
		bin   string
		args  []string
		ready string
	}{
		{"sage-serve", []string{"-socket", filepath.Join(tmp, "s.sock")}, "sage-serve: listening on"},
		{"sage-loop", []string{"-spool", filepath.Join(tmp, "spool"), "-state", filepath.Join(tmp, "state"),
			"-registry", filepath.Join(tmp, "reg"), "-interval", "50ms"}, "sage-loop: watching"},
	}
	for _, c := range cases {
		t.Run(c.bin, func(t *testing.T) {
			var out syncBuffer
			cmd := exec.Command(filepath.Join(binDir, c.bin), c.args...)
			cmd.Stdout, cmd.Stderr = &out, &out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer cmd.Process.Kill()
			deadline := time.Now().Add(10 * time.Second)
			for !strings.Contains(out.String(), c.ready) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never came up\n%s", c.bin, out.String())
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			if got := exitCode(cmd.Wait()); got != 130 {
				t.Errorf("%s on SIGINT: exit %d, want 130\n%s", c.bin, got, out.String())
			}
		})
	}
}

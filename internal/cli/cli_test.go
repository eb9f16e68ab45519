package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/dist"
	"sage/internal/netem"
	"sage/internal/promote"
	"sage/internal/safeio"
)

// The exit-code table: error class → process exit code. The two integrity
// tables differ on a missing file on purpose: sage-serve hands Integrity
// fs.ErrNotExist for a model load (the operator must restore the file),
// sage-loop does not (a missing file elsewhere is a plain fatal error).
func TestCode(t *testing.T) {
	serveModel := []error{safeio.ErrCorrupt, safeio.ErrTruncated, fs.ErrNotExist, promote.ErrNoIncumbent}
	loopState := []error{safeio.ErrLogCorrupt, safeio.ErrCorrupt, safeio.ErrTruncated, promote.ErrNoIncumbent}
	wrap := func(err error) error { return fmt.Errorf("load: %w", err) }
	live, cancelled := context.Background(), func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}()

	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"plain error", errors.New("boom"), ExitFatal},
		{"usage", Exitf(ExitUsage, "unknown mode %q", "x"), ExitUsage},
		{"wrapped usage", wrap(Exit(ExitUsage, errors.New("bad flag"))), ExitUsage},
		{"bare cancellation", wrap(context.Canceled), ExitSignal},

		{"corrupt", Integrity(wrap(safeio.ErrCorrupt), loopState...), ExitIntegrity},
		{"truncated", Integrity(wrap(safeio.ErrTruncated), loopState...), ExitIntegrity},
		{"journal corrupt", Integrity(wrap(safeio.ErrLogCorrupt), loopState...), ExitIntegrity},
		{"no incumbent", Integrity(wrap(promote.ErrNoIncumbent), loopState...), ExitIntegrity},
		{"missing model file", Integrity(wrap(fs.ErrNotExist), serveModel...), ExitIntegrity},
		{"missing file elsewhere", Integrity(wrap(fs.ErrNotExist), loopState...), ExitFatal},
		{"unrelated under integrity", Integrity(errors.New("dial unix: connection refused"), serveModel...), ExitFatal},
		{"nil under integrity", Integrity(nil, serveModel...), ExitOK},
		{"usage keeps its class under integrity", Integrity(Exit(ExitUsage, wrap(safeio.ErrCorrupt)), loopState...), ExitUsage},

		{"session complete", Session(live, "agent a", nil, dist.ErrRevoked), ExitOK},
		{"session revoked", Session(live, "agent a", wrap(dist.ErrRevoked), dist.ErrRevoked), ExitRevoked},
		{"session revoked beats a pending signal", Session(cancelled, "agent a", wrap(dist.ErrRevoked), dist.ErrRevoked), ExitRevoked},
		{"session drained", Session(cancelled, "worker 1", errors.New("read: use of closed connection"), dist.ErrRevoked), ExitSignal},
		{"session cancelled", Session(live, "worker 1", wrap(context.Canceled), dist.ErrRevoked), ExitSignal},
		{"session fatal", Session(live, "worker 1", errors.New("pool mismatch"), dist.ErrRevoked), ExitFatal},
	}
	for _, c := range cases {
		if got := Code(c.err); got != c.want {
			t.Errorf("%s: Code(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
	if err := Session(live, "agent a", wrap(dist.ErrRevoked), dist.ErrRevoked); !strings.HasPrefix(err.Error(), "agent a: ") {
		t.Errorf("session error %q does not name the session", err)
	}
}

func newFlags(args ...string) *Flags {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return &Flags{FlagSet: fs, args: args}
}

// A shared flag with a bad value is a usage error out of Parse — before a
// model loads, a pool is read or a sink is created. sage-eval used to run
// the tiny grid on an unknown -level, and -log-every 0 used to divide by
// zero inside the progress callback.
func TestSharedFlagValidation(t *testing.T) {
	cases := []struct {
		name   string
		define func(f *Flags)
		args   []string
		want   string // substring of the usage error; "" = parses
	}{
		{"level typo", func(f *Flags) { f.Scenarios("") }, []string{"-level", "tiyn"}, `unknown grid level "tiyn"`},
		{"level typo without schemes", func(f *Flags) { f.Scenarios("", "schemes", "window") }, []string{"-level", "bogus"}, "unknown grid level"},
		{"gate level typo", func(f *Flags) { f.Level("gate-level", "gate suite") }, []string{"-gate-level", "huge"}, "unknown grid level"},
		{"unknown scheme", func(f *Flags) { f.Scenarios("") }, []string{"-schemes", "cubic,nosuch"}, "nosuch"},
		{"log-every zero", func(f *Flags) { f.Train("") }, []string{"-log-every", "0"}, "-log-every must be positive"},
		{"checkpoint-every zero", func(f *Flags) { f.Train("") }, []string{"-checkpoint-every", "0"}, "-checkpoint-every must be positive"},
		{"checkpoint-every negative", func(f *Flags) { f.Train("", "checkpoint", "log-every") }, []string{"-checkpoint-every", "-5"}, "-checkpoint-every must be positive"},
		{"unknown mask", func(f *Flags) { f.Train("") }, []string{"-mask", "bogus"}, "unknown mask"},
		{"undefined flag", func(f *Flags) { f.Train("") }, []string{"-no-such-flag"}, "not defined"},
		{"omitted flag is not offered", func(f *Flags) { f.Train("", "checkpoint", "log-every") }, []string{"-log-every", "5"}, "not defined"},
		{"defaults", func(f *Flags) { f.Train(""); f.Scenarios("") }, nil, ""},
		{"all set", func(f *Flags) { f.Train(""); f.Scenarios("") }, []string{"-level", "small", "-log-every", "1", "-mask", "no-minmax", "-schemes", "cubic,vegas"}, ""},
	}
	for _, c := range cases {
		f := newFlags(c.args...)
		c.define(f)
		err := f.Parse()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Parse: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Parse = %v, want an error containing %q", c.name, err, c.want)
		case c.want != "" && Code(err) != ExitUsage:
			t.Errorf("%s: exit %d, want %d", c.name, Code(err), ExitUsage)
		}
	}
}

func TestSharedFlagValues(t *testing.T) {
	f := newFlags("-level", "small", "-gate-level", "full", "-mask", "no-rttvar", "-schemes", "cubic,vegas", "-gru", "4")
	tr, sc, gate := f.Train("train: "), f.Scenarios("collect: "), f.Level("gate-level", "gate suite")
	f.Respell("checkpoint-every", "round checkpoint period in steps", "500")
	if err := f.Parse(); err != nil {
		t.Fatal(err)
	}
	if sc.Level != netem.GridSmall || sc.LevelName != "small" || *gate != netem.GridFull {
		t.Errorf("levels = %v (%q), %v", sc.Level, sc.LevelName, *gate)
	}
	if len(tr.Mask) == 0 || len(sc.Schemes) != 2 {
		t.Errorf("mask %d signals, schemes %v", len(tr.Mask), sc.Schemes)
	}
	if p := tr.Policy(); p.Hidden != 4 || p.Enc != 32 || p.K != 3 || p.ResBlocks != 2 {
		t.Errorf("policy = %+v", p)
	}
	if tr.CheckpointEvery != 500 || f.Lookup("checkpoint-every").DefValue != "500" {
		t.Errorf("respelled default: value %d, help default %q", tr.CheckpointEvery, f.Lookup("checkpoint-every").DefValue)
	}
	if got := f.Lookup("steps").Usage; got != "train: CRR gradient steps" {
		t.Errorf("prefixed help = %q", got)
	}
}

// Sinks are created by Open — before the run's work, so a bad path costs
// milliseconds — and flushed by the harness on every path out of run, the
// error paths included. sage-eval used to open -metrics after the league
// had run, and sage-train lost the buffered tail on its failure exits.
func TestSinksOpenBeforeWorkAndFlushOnEveryExit(t *testing.T) {
	dir := t.TempDir()

	bad := newFlags("-metrics", filepath.Join(dir, "no-such-dir", "m.jsonl"))
	bad.Sink("metrics", "")
	if err := bad.Parse(); err != nil {
		t.Fatal(err)
	}
	if err := bad.Open(); err == nil {
		t.Fatal("Open created a sink under a missing directory")
	}

	for _, c := range []struct {
		name string
		ret  error
		want int
	}{
		{"clean", nil, ExitOK},
		{"fatal", errors.New("model.Save: disk full"), ExitFatal},
		{"usage", Exitf(ExitUsage, "late usage error"), ExitUsage},
		{"signal", Exitf(ExitSignal, "interrupted"), ExitSignal},
	} {
		path := filepath.Join(dir, c.name+".jsonl")
		f := newFlags("-metrics", path)
		sink := f.Sink("metrics", "")
		off := f.Sink("events", "")
		var stderr bytes.Buffer
		code := runMain(func(ctx context.Context, f *Flags) error {
			if err := f.Parse(); err != nil {
				return err
			}
			if sink.JSONL != nil {
				t.Errorf("%s: sink open before Open", c.name)
			}
			if err := f.Open(); err != nil {
				return err
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: sink file not there after Open: %v", c.name, err)
			}
			if err := off.Emit("dropped"); err != nil || off.JSONL != nil {
				t.Errorf("%s: a sink whose flag is not given must be a no-op", c.name)
			}
			return errors.Join(sink.Emit(map[string]int{"step": 1}), c.ret)
		}, f, &stderr)
		if code != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, code, c.want)
		}
		if c.ret != nil && !strings.Contains(stderr.String(), c.ret.Error()) {
			t.Errorf("%s: stderr %q does not carry the error", c.name, stderr.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil || string(raw) != "{\"step\":1}\n" {
			t.Errorf("%s: sink holds %q (%v), want the buffered record flushed", c.name, raw, err)
		}
	}
}

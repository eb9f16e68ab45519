//go:build integration

// Chaos soak tests: the real binaries under a seeded fault-injecting
// transport (frame drops/dups/truncations plus periodic partitions),
// with the coordinator SIGKILL'd mid-run and restarted. Collection must
// still produce a pool byte-identical to a fault-free single-process
// run; training must still produce a model byte-identical to in-process
// data-parallel training. Build-tagged so the tier-1 suite stays
// hermetic; CI runs these with -tags integration.
package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sage/internal/core"
)

// launchCoord starts the coordinator binary and scans its stdout for the
// announced listen address, leaving a goroutine draining the rest.
func launchCoord(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var addr string
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		t.Logf("coord: %s", line)
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		t.Fatal("coordinator never announced its address")
	}
	go func() {
		for sc.Scan() {
			t.Logf("coord: %s", sc.Text())
		}
	}()
	return cmd, addr
}

// waitForFile polls until path exists and test() accepts its contents.
func waitForFile(t *testing.T, path, what string, timeout time.Duration, test func([]byte) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared at %s", what, path)
		}
		if raw, err := os.ReadFile(path); err == nil && test(raw) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosSoakCollectionSurvivesCoordinatorKill(t *testing.T) {
	bins := t.TempDir()
	coordBin := buildBinary(t, bins, "sage-coord", ".")
	collectBin := buildBinary(t, bins, "sage-collect", "../sage-collect")
	dir := t.TempDir()

	// Reference: a fault-free single-process run of the same campaign.
	refPool := filepath.Join(dir, "ref.gob.gz")
	refArgs := append([]string{"-out", refPool, "-parallel", "2"}, campaignArgs...)
	if out, err := exec.Command(collectBin, refArgs...).CombinedOutput(); err != nil {
		t.Fatalf("single-process run: %v\n%s", err, out)
	}
	want, err := os.ReadFile(refPool)
	if err != nil {
		t.Fatal(err)
	}

	outPool := filepath.Join(dir, "pool.gob.gz")
	coordArgs := append([]string{"-mode", "collect",
		"-out", outPool, "-lease-ttl", "15s", "-hedge-factor", "3",
		"-chaos", "seed=7,drop=0.04,dup=0.08,trunc=0.02,part-every=8s,part-for=750ms"},
		campaignArgs...)
	coord, addr := launchCoord(t, coordBin, append([]string{"-listen", "127.0.0.1:0"}, coordArgs...)...)
	defer coord.Process.Kill()

	agent := func(id string) *exec.Cmd {
		cmd := exec.Command(collectBin, "-agent", addr, "-agent-id", id,
			"-parallel", "2", "-rpc-timeout", "5s", "-redial-attempts", "500")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("agent %s: %v", id, err)
		}
		return cmd
	}
	a1, a2 := agent("chaos-1"), agent("chaos-2")

	// SIGKILL the coordinator once at least one cell has committed: the
	// WAL must carry the campaign across the crash.
	waitForFile(t, outPool+".wal", "WAL done record", 2*time.Minute,
		func(raw []byte) bool { return strings.Contains(string(raw), `"t":"done"`) })
	if err := coord.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	coord.Wait()
	if _, err := os.Stat(outPool + ".manifest"); err == nil {
		t.Fatal("coordinator wrote a manifest next to its WAL")
	}

	// Restart on the same address with -resume while the agents are still
	// redialing; the campaign continues where the WAL says it was.
	coord2, _ := launchCoord(t, coordBin,
		append([]string{"-listen", addr, "-resume"}, coordArgs...)...)
	defer coord2.Process.Kill()

	if err := waitExit(t, "agent chaos-1", a1, 8*time.Minute); err != nil {
		t.Fatalf("agent chaos-1: %v", err)
	}
	if err := waitExit(t, "agent chaos-2", a2, 8*time.Minute); err != nil {
		t.Fatalf("agent chaos-2: %v", err)
	}
	if err := waitExit(t, "restarted coordinator", coord2, 2*time.Minute); err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}

	got, err := os.ReadFile(outPool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pool after chaos + coordinator kill differs from fault-free run (%d vs %d bytes)", len(got), len(want))
	}
	for _, leftover := range []string{outPool + ".wal", outPool + ".shards", outPool + ".manifest"} {
		if _, err := os.Stat(leftover); err == nil {
			t.Fatalf("%s left behind after success", leftover)
		}
	}
}

func TestChaosSoakTrainingResumesBitwise(t *testing.T) {
	bins := t.TempDir()
	coordBin := buildBinary(t, bins, "sage-coord", ".")
	collectBin := buildBinary(t, bins, "sage-collect", "../sage-collect")
	trainBin := buildBinary(t, bins, "sage-train", "../sage-train")
	dir := t.TempDir()

	pool := filepath.Join(dir, "pool.gob.gz")
	collectArgs := []string{"-out", pool, "-schemes", "cubic", "-level", "tiny",
		"-seti-dur", "2s", "-setii-dur", "4s", "-seed", "1", "-parallel", "2"}
	if out, err := exec.Command(collectBin, collectArgs...).CombinedOutput(); err != nil {
		t.Fatalf("collect pool: %v\n%s", err, out)
	}

	// Reference: in-process data-parallel training (no sentinel — the
	// distributed coordinator runs the bare learner).
	archArgs := []string{"-steps", "400", "-enc", "16", "-gru", "8", "-seed", "3"}
	refModel := filepath.Join(dir, "ref.model")
	refArgs := append([]string{"-pool", pool, "-out", refModel, "-workers", "2",
		"-sentinel=false"}, archArgs...)
	if out, err := exec.Command(trainBin, refArgs...).CombinedOutput(); err != nil {
		t.Fatalf("in-process training: %v\n%s", err, out)
	}

	distModel := filepath.Join(dir, "dist.model")
	ckpt := filepath.Join(dir, "train.ckpt")
	coordArgs := append([]string{"-mode", "train", "-pool", pool,
		"-model-out", distModel, "-train-workers", "2",
		"-checkpoint", ckpt, "-checkpoint-every", "25",
		"-chaos", "seed=3,drop=0.03,dup=0.08,trunc=0.02"}, archArgs...)
	coord, addr := launchCoord(t, coordBin, append([]string{"-listen", "127.0.0.1:0"}, coordArgs...)...)
	defer coord.Process.Kill()

	worker := func(idx int) *exec.Cmd {
		cmd := exec.Command(trainBin, "-worker", addr, "-worker-index", strconv.Itoa(idx),
			"-pool", pool, "-redial-attempts", "500")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("worker %d: %v", idx, err)
		}
		return cmd
	}
	w0, w1 := worker(0), worker(1)

	// SIGKILL the coordinator mid-barrier, after at least one checkpoint
	// committed; the restart resumes from it bit for bit.
	waitForFile(t, ckpt, "training checkpoint", 3*time.Minute,
		func(raw []byte) bool { return len(raw) > 0 })
	if err := coord.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	coord.Wait()

	coord2, _ := launchCoord(t, coordBin, append([]string{"-listen", addr}, coordArgs...)...)
	defer coord2.Process.Kill()

	if err := waitExit(t, "worker 0", w0, 8*time.Minute); err != nil {
		t.Fatalf("worker 0: %v", err)
	}
	if err := waitExit(t, "worker 1", w1, 8*time.Minute); err != nil {
		t.Fatalf("worker 1: %v", err)
	}
	if err := waitExit(t, "restarted coordinator", coord2, 2*time.Minute); err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}

	assertModelParamsBitwise(t, distModel, refModel)
}

// assertModelParamsBitwise compares two saved models parameter by
// parameter. The raw files are NOT compared: Model.Save gob-encodes the
// whole policy including forward-pass scratch buffers, which an
// in-process learner has exercised and the coordinator's master (params
// arrive by all-reduce, never by forward pass) has not. The training
// guarantee is on the learned parameters, mask, and GR config.
func assertModelParamsBitwise(t *testing.T, gotPath, wantPath string) {
	t.Helper()
	got, err := core.LoadModel(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.LoadModel(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	gp, wp := got.Policy.Params(), want.Policy.Params()
	if len(gp) != len(wp) {
		t.Fatalf("param tensor count %d vs %d", len(gp), len(wp))
	}
	for i := range gp {
		if gp[i].Name != wp[i].Name || !reflect.DeepEqual(gp[i].Data, wp[i].Data) {
			t.Fatalf("param %s differs from in-process training after chaos + coordinator kill", wp[i].Name)
		}
	}
	if !reflect.DeepEqual(got.Mask, want.Mask) || got.GR != want.GR {
		t.Fatal("model mask/GR config differs from in-process training")
	}
}

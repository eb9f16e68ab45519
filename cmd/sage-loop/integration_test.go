//go:build integration

// Closed-loop integration tests: real sage-serve and sage-loop binaries
// sharing a spool, a state dir, and a registry over the filesystem. The
// kill matrix kills the loop daemon at every stage boundary and asserts
// the resumed loop loses nothing, duplicates nothing, and still lands
// exactly one promoted candidate the serving daemon can boot from. The
// soak drives the serving plane with the chaos load generator, churns
// the loop daemon through env-seam kills plus a raw SIGKILL, and checks
// the spool-to-verdict accounting balances to the record.
package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sage/internal/chaos"
	"sage/internal/feedback"
	"sage/internal/gr"
	"sage/internal/promote"
	"sage/internal/serve"
)

func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

type loopEnv struct {
	spool, state, registry string
}

func newLoopEnv(t *testing.T) loopEnv {
	base := t.TempDir()
	return loopEnv{
		spool:    filepath.Join(base, "spool"),
		state:    filepath.Join(base, "state"),
		registry: filepath.Join(base, "registry"),
	}
}

// loopArgs returns the shared daemon configuration — a tiny network and a
// two-scenario gate so each round finishes in seconds.
func (e loopEnv) loopArgs(extra ...string) []string {
	args := []string{
		"-spool", e.spool, "-state", e.state, "-registry", e.registry,
		"-min-admitted", "2", "-warm-start=false",
		"-steps", "40", "-enc", "8", "-gru", "4", "-gmm", "2",
		"-checkpoint-every", "5", "-gate-level", "tiny", "-gate-duration", "1s",
	}
	return append(args, extra...)
}

// runLoopOnce runs a single sage-loop -once step, optionally with the
// kill seam armed, and returns the exit code plus combined output.
func runLoopOnce(bin string, env loopEnv, killStage string) (int, string) {
	cmd := exec.Command(bin, env.loopArgs("-once")...)
	if killStage != "" {
		cmd.Env = append(os.Environ(), "SAGE_LOOP_KILL_STAGE="+killStage)
	}
	out, err := cmd.CombinedOutput()
	return exitCode(err), string(out)
}

// regimeState builds a full-width GR state vector exhibiting one traffic
// regime (indices follow internal/feedback/regime.go).
func regimeState(regime string, i int) []float64 {
	s := make([]float64, gr.StateDim)
	jit := float64(i%7) * 0.01
	srtt, floor, loss, dr, drMax := 20+jit, 20.0, 0.0, 50.0, 60.0
	switch regime {
	case "lossy":
		loss = 2
	case "bufferbloat":
		srtt = 80 + jit
	case "flappy":
		dr = 10
		if i%2 == 1 {
			dr = 90
		}
		drMax = 95
	}
	s[0], s[11], s[60], s[64], s[66] = srtt, floor, loss, dr, drMax
	return s
}

func startServe(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "serve.sock")
	cmd := exec.Command(bin, append([]string{"-socket", sock}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := os.Stat(sock); err == nil {
			return cmd, sock
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("sage-serve never created its socket")
	return nil, ""
}

// drainServe SIGTERMs the serving daemon and waits for the graceful-stop
// exit: the drain flushes every open trace window through the spool sink.
func drainServe(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); exitCode(err) != 130 {
		t.Fatalf("serve drain exit %d, want 130", exitCode(err))
	}
}

// fillSpool runs sage-serve -trace-spool, serves sessions across all four
// traffic regimes through the real socket, and drains so every window
// lands in the spool.
func fillSpool(t *testing.T, serveBin string, env loopEnv, sessions int) {
	t.Helper()
	cmd, sock := startServe(t, serveBin, "-trace-spool", env.spool)
	cl, err := serve.Dial(sock)
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	sid := uint64(1)
	for _, regime := range []string{"steady", "lossy", "bufferbloat", "flappy"} {
		for n := 0; n < sessions; n++ {
			cwnd := 100.0
			for i := 0; i < 8; i++ {
				newCwnd, status, err := cl.Decide(sid, cwnd, regimeState(regime, i))
				if err != nil {
					t.Fatalf("decide: %v", err)
				}
				if status == serve.StatusOK {
					cwnd = newCwnd
				}
			}
			if err := cl.CloseSession(sid); err != nil {
				t.Fatalf("close session: %v", err)
			}
			sid++
		}
	}
	cl.Close()
	drainServe(t, cmd)
}

// spoolRecords counts complete records across the spool chain.
func spoolRecords(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if _, err := feedback.TailSpool(dir, feedback.Cursor{}, func(feedback.Cursor, []byte) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// verifyAccounting replays the loop's journals from disk and asserts the
// exactly-once invariant: every spooled record got exactly one
// disposition, and the identity balances.
func verifyAccounting(t *testing.T, env loopEnv) feedback.Counts {
	t.Helper()
	in, err := feedback.OpenIngester(feedback.IngestConfig{SpoolDir: env.spool, StateDir: env.state, GR: gr.Config{}.Fill()})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	c := in.Counts()
	if spooled := spoolRecords(t, env.spool); c.Ingested != spooled {
		t.Fatalf("ingested %d of %d spooled records (lost or duplicated windows)", c.Ingested, spooled)
	}
	if c.Ingested != c.Admitted+c.Quarantined+c.Skipped {
		t.Fatalf("accounting identity broken: %+v", c)
	}
	return c
}

// The acceptance matrix: kill the loop at every stage boundary (the env
// seam exits 137 the instant that stage's durable record commits —
// equivalent to kill -9 landing there), resume, and end with exactly one
// promoted candidate served end to end by a fresh sage-serve.
func TestClosedLoopKillAtEveryStage(t *testing.T) {
	serveBin := buildBinary(t, "./sage-serve")
	loopBin := buildBinary(t, "./sage-loop")
	env := newLoopEnv(t)
	fillSpool(t, serveBin, env, 2)

	for _, stage := range []string{"poll", "round", "trained", "published", "verdict"} {
		if code, out := runLoopOnce(loopBin, env, stage); code != 137 {
			t.Fatalf("kill at %s: exit %d, want 137\n%s", stage, code, out)
		}
	}
	// Clean resume: the verdict landed before the last kill fired, so this
	// run finds round 1 closed, polls nothing new, and exits clean.
	if code, out := runLoopOnce(loopBin, env, ""); code != 0 {
		t.Fatalf("clean resume: exit %d\n%s", code, out)
	}

	reg, err := promote.OpenRegistry(env.registry)
	if err != nil {
		t.Fatal(err)
	}
	if models := reg.List(); len(models) != 1 {
		t.Fatalf("registry holds %d models, want exactly 1 (idempotent publish through 5 kills)", len(models))
	}
	inc, ok := reg.Incumbent()
	if !ok {
		t.Fatal("no incumbent promoted after the kill matrix")
	}
	if inc.Provenance != "sage-loop" || !strings.HasPrefix(inc.ID, "sage-loop-") {
		t.Fatalf("incumbent %s (provenance %s), want a sage-loop candidate", inc.ID, inc.Provenance)
	}
	reg.Close()

	c := verifyAccounting(t, env)
	if c.Admitted < 2 {
		t.Fatalf("admitted %d windows, want at least the round trigger threshold", c.Admitted)
	}

	// Close the loop's final arc: a serving daemon boots on the registry,
	// serves decisions from the loop-trained incumbent, and reports it.
	cmd, sock := startServe(t, serveBin, "-registry", env.registry)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	cl, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Decide(1, 100, regimeState("steady", 0)); err != nil {
		t.Fatalf("decide against loop-trained incumbent: %v", err)
	}
	status, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, inc.ID) {
		t.Fatalf("daemon status %q does not name the loop's incumbent %s", status, inc.ID)
	}
}

// Soak: the chaos load generator hammers a spooling sage-serve, then the
// loop daemon runs under kill churn — env-seam kills at stage boundaries
// plus a raw SIGKILL of the daemon mode mid-flight — and the books still
// balance: spooled == ingested == admitted + quarantined + skipped, with
// a sage-loop candidate in the registry.
func TestClosedLoopSoak(t *testing.T) {
	serveBin := buildBinary(t, "./sage-serve")
	loopBin := buildBinary(t, "./sage-loop")
	env := newLoopEnv(t)

	cmd, sock := startServe(t, serveBin, "-trace-spool", env.spool, "-trace-window", "32")
	stats := chaos.RunLoad(chaos.LoadSpec{
		Dial:     func() (net.Conn, error) { return net.Dial("unix", sock) },
		Conns:    8,
		Duration: 2 * time.Second,
		Interval: time.Millisecond,
		StateDim: gr.StateDim,
		Seed:     1,
	})
	if stats.Sent != stats.OK+stats.Fallback+stats.Busy+stats.Overload+stats.Errors {
		t.Fatalf("load accounting broken: %+v", stats)
	}
	if stats.OK == 0 {
		t.Fatalf("load run got no OK decisions: %+v", stats)
	}
	drainServe(t, cmd)

	if n := spoolRecords(t, env.spool); n == 0 {
		t.Fatal("load run spooled no windows")
	}

	// Churn: die at two stage boundaries via the seam, then SIGKILL the
	// daemon mode for real mid-cadence.
	for _, stage := range []string{"poll", "trained"} {
		if code, out := runLoopOnce(loopBin, env, stage); code != 137 {
			t.Fatalf("churn kill at %s: exit %d\n%s", stage, code, out)
		}
	}
	daemon := exec.Command(loopBin, env.loopArgs("-interval", "100ms")...)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	daemon.Process.Signal(syscall.SIGKILL)
	daemon.Wait()

	// Recovery: clean -once runs until the loop is idle again.
	for i := 0; i < 3; i++ {
		if code, out := runLoopOnce(loopBin, env, ""); code != 0 {
			t.Fatalf("clean run %d: exit %d\n%s", i, code, out)
		}
	}

	c := verifyAccounting(t, env)
	if c.Admitted == 0 {
		t.Fatal("soak admitted nothing")
	}
	reg, err := promote.OpenRegistry(env.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, ok := reg.Incumbent(); !ok {
		t.Fatal("soak never promoted a candidate")
	}
	for _, m := range reg.List() {
		if m.Provenance != "sage-loop" {
			t.Fatalf("foreign model %s (provenance %s) in the loop's registry", m.ID, m.Provenance)
		}
	}
}

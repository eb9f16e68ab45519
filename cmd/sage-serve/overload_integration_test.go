//go:build integration

// Overload soak: run the real daemon, measure its easy-load service rate,
// then drive it several times past capacity — with and without transport
// chaos — and assert the overload contract end to end: shed-not-crash,
// explicit answers only (never silence), bounded memory, no spurious
// watchdog demotion, and bounded recovery back to full service.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sage/internal/chaos"
	"sage/internal/gr"
	"sage/internal/promote"
	"sage/internal/serve"
)

// soakRegistry builds a registry with two promoted generations and
// returns it with both ids (idB is the incumbent).
func soakRegistry(t *testing.T) (dir, idA, idB string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "registry")
	r, err := promote.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	idA, err = r.Publish(testModel(t, 1), promote.Meta{Provenance: "boot"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(idA, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	idB, err = r.Publish(testModel(t, 2), promote.Meta{Provenance: "trainer"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(idB, "gate passed"); err != nil {
		t.Fatal(err)
	}
	return dir, idA, idB
}

func daemonHealth(t *testing.T, sock string) serve.Health {
	t.Helper()
	cl, err := serve.DialTimeout(sock, 2*time.Second)
	if err != nil {
		t.Fatalf("health dial: %v", err)
	}
	defer cl.Close()
	cl.SetTimeout(2 * time.Second)
	doc, err := cl.Health()
	if err != nil {
		t.Fatalf("health verb: %v", err)
	}
	var h serve.Health
	if err := json.Unmarshal([]byte(doc), &h); err != nil {
		t.Fatalf("health doc %q: %v", doc, err)
	}
	return h
}

// execCommandOutput runs the binary in client mode and returns stdout.
func execCommandOutput(bin string, args ...string) (string, error) {
	out, err := exec.Command(bin, args...).Output()
	return string(out), err
}

// vmRSSKB reads the daemon's resident set from /proc.
func vmRSSKB(t *testing.T, pid int) int {
	t.Helper()
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		t.Fatalf("proc status: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			kb, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("VmRSS %q: %v", line, err)
			}
			return kb
		}
	}
	t.Fatal("no VmRSS in proc status")
	return 0
}

func TestOverloadSoak(t *testing.T) {
	bin := buildBinary(t)
	regDir, _, idB := soakRegistry(t)
	cmd, sock := startServe(t, bin, "-registry", regDir,
		"-max-batch", "8", "-deadline", "1ms", "-workers", "1",
		"-max-inflight", "16", "-overload-eval", "5ms",
		"-watchdog-interval", "50ms", "-max-conns", "128")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	dial := func() (net.Conn, error) { return net.Dial("unix", sock) }

	// The swap verb arms the demotion watchdog, making "no spurious
	// demotion under overload" a real assertion rather than a vacuous one.
	cl, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Swap(idB); err != nil {
		t.Fatalf("arming swap: %v", err)
	}
	cl.Close()

	// Phase 1 — measure the easy-load service rate: a couple of paced
	// connections, far below every brownout rung.
	baseDur := 700 * time.Millisecond
	base := chaos.RunLoad(chaos.LoadSpec{
		Dial: dial, Conns: 2, Duration: baseDur,
		Interval: 5 * time.Millisecond, StateDim: gr.StateDim, Seed: 1,
	})
	if base.OK == 0 || base.Errors != 0 {
		t.Fatalf("baseline run unhealthy: %+v", base)
	}
	baseRate := float64(base.OK) / baseDur.Seconds()
	if h := daemonHealth(t, sock); !h.Ready() {
		t.Fatalf("daemon not ready after baseline: %+v", h)
	}
	rssBefore := vmRSSKB(t, cmd.Process.Pid)

	// Phase 2 — the soak: hot-looping connections at well over 3× the
	// measured service rate (24× the baseline connection count, unpaced).
	soakDur := 3 * time.Second
	soak := chaos.RunLoad(chaos.LoadSpec{
		Dial: dial, Conns: 48, Duration: soakDur,
		StateDim: gr.StateDim, Seed: 2, HighPriFrac: 0.25,
		Timeout: 5 * time.Second,
	})
	soakRate := float64(soak.Sent) / soakDur.Seconds()
	t.Logf("baseline %.0f served/s; soak offered %.0f calls/s (%.1fx): %+v, latency %+v",
		baseRate, soakRate, soakRate/baseRate, soak, soak.Latency.Summary())

	// Offered load actually exceeded 3× the easy-load service rate.
	if soakRate < 3*baseRate {
		t.Errorf("soak offered %.0f/s, want ≥ 3x baseline %.0f/s", soakRate, baseRate)
	}
	// Shed-not-crash, and never silence: every call answered explicitly.
	if soak.Errors != 0 {
		t.Errorf("soak produced %d silent/errored calls: %+v", soak.Errors, soak)
	}
	if soak.Sent != soak.Answered() {
		t.Errorf("accounting: sent %d != answered %d", soak.Sent, soak.Answered())
	}
	// Overload was explicit: typed OVERLOAD rejections or cheap-path
	// fallback decisions (brownout), in volume.
	if soak.Overload+soak.Fallback == 0 {
		t.Errorf("daemon absorbed %d calls with no explicit shedding/degradation", soak.Sent)
	}
	// Admitted flows kept being served from the policy throughout.
	if soak.OK == 0 {
		t.Error("no policy-served decisions during the soak")
	}
	// Latency stayed bounded for answered calls (the decision budget is
	// 250ms; overload replies pause the conn up to 100ms).
	if p99 := soak.Latency.Summary().P99; p99 > 1e6 {
		t.Errorf("answered-call p99 = %.0fµs, want bounded under overload", p99)
	}
	// Bounded memory: RSS growth over the soak stays far from queue-bloat
	// territory.
	rssAfter := vmRSSKB(t, cmd.Process.Pid)
	t.Logf("daemon VmRSS %d KB -> %d KB", rssBefore, rssAfter)
	if growth := rssAfter - rssBefore; growth > 256*1024 {
		t.Errorf("daemon RSS grew %d KB during soak, want bounded", growth)
	}

	// The ladder engaged and its transitions are visible in the overload
	// telemetry carried by the health document.
	h := daemonHealth(t, sock)
	if h.Transitions == 0 {
		t.Errorf("no ladder transitions recorded: %+v", h)
	}
	if h.Shed+h.Degraded == 0 {
		t.Errorf("health shows no shed/degraded decisions: %+v", h)
	}

	// Phase 3 — bounded recovery: with load gone, the daemon must return
	// to full service well within seconds (the configured bound is
	// 3 rungs × 10 calm windows × EvalInterval = 150ms plus scheduling
	// slack).
	deadline := time.Now().Add(5 * time.Second)
	for {
		h = daemonHealth(t, sock)
		if h.Ready() && h.Mode == "full" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recovered to full service: %+v", h)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// No spurious demotion: the watchdog ticked through the brownout (it
	// is masked while overloaded, rebased on recovery) and the armed swap
	// is still serving.
	time.Sleep(200 * time.Millisecond) // a few post-recovery watchdog ticks
	cl, err = serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	status, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Serving string `json:"serving"`
	}
	if err := json.Unmarshal([]byte(status), &doc); err != nil {
		t.Fatalf("status %q: %v", status, err)
	}
	if doc.Serving != idB {
		t.Fatalf("overload demoted the incumbent: serving %s, want %s (status %s)", doc.Serving, idB, status)
	}
	state := make([]float64, gr.StateDim)
	if _, st, err := cl.Decide(9999, 100, state); err != nil || (st != serve.StatusOK && st != serve.StatusFallback) {
		t.Fatalf("post-recovery decide: status %d, err %v", st, err)
	}
}

// The same contract holds when the overload arrives through a faulty
// transport: drops, delays, and truncations on top of 3×+ load must still
// never crash the daemon, and it must still recover to full service.
func TestOverloadSoakChaos(t *testing.T) {
	bin := buildBinary(t)
	regDir, _, _ := soakRegistry(t)
	cmd, sock := startServe(t, bin, "-registry", regDir,
		"-max-batch", "8", "-deadline", "1ms", "-workers", "1",
		"-max-inflight", "16", "-overload-eval", "5ms", "-max-conns", "128")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	spec, err := chaos.ParseFaultSpec("seed=11,drop=0.03,trunc=0.02,delay=2ms,jitter=3ms")
	if err != nil {
		t.Fatal(err)
	}
	tr := chaos.NewTransport(spec)
	soak := chaos.RunLoad(chaos.LoadSpec{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("unix", sock)
			if err != nil {
				return nil, err
			}
			return tr.WrapConn(c), nil
		},
		Conns: 32, Duration: 3 * time.Second,
		StateDim: gr.StateDim, Seed: 3,
		Timeout: 300 * time.Millisecond, Redial: true,
	})
	t.Logf("chaos soak: %+v", soak)
	if soak.Answered() == 0 {
		t.Fatalf("nothing served through transport chaos: %+v", soak)
	}
	// Transport faults make client-side errors legitimate, but the books
	// must still balance: every call either answered or failed loudly.
	if soak.Sent != soak.Answered()+soak.Errors {
		t.Errorf("accounting: sent %d != answered %d + errors %d", soak.Sent, soak.Answered(), soak.Errors)
	}

	// The daemon survived and recovers to full service.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := daemonHealth(t, sock)
		if h.Ready() && h.Mode == "full" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recovered after chaos soak: %+v", h)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The -health probe verb agrees: exit 0 and a JSON doc on stdout.
	out, err := execCommandOutput(bin, "-socket", sock, "-health")
	if err != nil {
		t.Fatalf("-health probe: %v (%s)", err, out)
	}
	var h serve.Health
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &h); err != nil {
		t.Fatalf("-health output %q: %v", out, err)
	}
	if !h.Ready() {
		t.Fatalf("-health exit 0 but doc not ready: %+v", h)
	}
}

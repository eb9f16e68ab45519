package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"sage/internal/serve"
	"sage/internal/telemetry"
)

// shadowRecorder counts mirrored decisions (the PR 8 shadow interface).
type shadowRecorder struct{ n int }

func (s *shadowRecorder) Observe(sid uint64, state []float64, ratio float64, fallback bool) { s.n++ }

// Synchronous-path brownout, end to end over exported surface only: a
// backlog past the occupancy rungs escalates the ladder at Flush; the
// shadow observer is shed first; at ModeDegraded every flow still gets an
// explicit cheap decision (never silence) and guard-facing controllers
// report BrownedOut; calm evaluation windows recover to full service
// within the documented bound.
func TestSyncBrownoutLadder(t *testing.T) {
	reg := telemetry.NewRegistry()
	healthy := serve.HealthyEvals
	eng := serve.NewEngine(serve.Config{
		Policy:   testPolicy(41),
		MaxBatch: 64,
		Metrics:  reg,
		Overload: &serve.OverloadConfig{MaxInflight: 8},
	})
	shadow := &shadowRecorder{}
	eng.SetShadow(shadow)
	ctrl := serve.NewController(eng)

	rng := rand.New(rand.NewSource(7))
	enqueueN := func(n int) {
		for i := 0; i < n; i++ {
			eng.Enqueue(uint64(100+i), benchConn(t), randState(rng))
		}
	}

	// 16 pending vs MaxInflight 8: occupancy 2.0 ≥ DrainFrac. The overflow
	// past MaxPending (8) is served the cheap path in the same Flush.
	enqueueN(16)
	eng.Flush(0)
	if got := eng.OverloadMode(); got != serve.ModeDraining {
		t.Fatalf("mode after saturated flush = %v, want draining", got)
	}
	if !ctrl.BrownedOut() {
		t.Fatal("controller does not report brownout at draining")
	}
	if got := reg.Counter(serve.MetricOverloadDegraded).Value(); got != 8 {
		t.Fatalf("overflow degraded count = %d, want 8", got)
	}
	preShadow := shadow.n
	if preShadow == 0 {
		t.Fatal("shadow saw nothing during the full-service flush prefix")
	}

	// Browned out: the next interval's decisions are all served — cheap
	// path, no policy pass, shadow untouched.
	enqueueN(4)
	eng.Flush(0)
	if got := reg.Counter(serve.MetricOverloadDegraded).Value(); got != 12 {
		t.Fatalf("degraded count = %d, want 12 (every flow still decided)", got)
	}
	if shadow.n != preShadow {
		t.Fatalf("shadow observed %d decisions during brownout, want 0 new", shadow.n-preShadow)
	}
	if reg.Gauge(serve.MetricOverloadMode).Value() != float64(serve.ModeDraining) {
		t.Fatalf("mode gauge = %v, want %d", reg.Gauge(serve.MetricOverloadMode).Value(), serve.ModeDraining)
	}

	// Bounded recovery: one rung per serve.HealthyEvals calm windows.
	for i := 0; i < 3*healthy; i++ {
		eng.OverloadTick()
	}
	if got := eng.OverloadMode(); got != serve.ModeFull {
		t.Fatalf("mode after %d calm windows = %v, want full", 3*healthy, got)
	}
	if ctrl.BrownedOut() {
		t.Fatal("controller still browned out after recovery")
	}
	// Shed-shadow specifically: half occupancy pauses mirroring but keeps
	// serving the policy.
	enqueueN(4) // 4/8 = ShedFrac
	eng.Flush(0)
	eng.OverloadTick() // the flush's own eval may be inside the last window
	if got := eng.OverloadMode(); got != serve.ModeShedShadow {
		t.Fatalf("mode after half occupancy = %v, want shed-shadow", got)
	}
	pre := shadow.n
	enqueueN(2)
	eng.Flush(0)
	if shadow.n != pre {
		t.Fatal("shadow observed decisions while shed")
	}
	if reg.Counter(serve.MetricOverloadShadowShed).Value() == 0 {
		t.Fatal("shadow_shed counter not incremented")
	}
	if reg.Counter(serve.MetricDecisions).Value() == 0 {
		t.Fatal("policy decisions stopped at shed-shadow (live flows must be unaffected)")
	}
}

// A decide past the in-flight cap gets the typed OVERLOAD wire reply with
// a parseable retry-after hint, while the admitted request completes.
func TestWireOverloadReply(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{
		Policy:   testPolicy(43),
		Workers:  1,
		Metrics:  reg,
		Overload: &serve.OverloadConfig{MaxInflight: 1, EvalInterval: time.Hour},
	})
	hold := serve.HoldWorker(eng) // parks the first request in flight
	sock, stop := startServer(t, eng)
	defer stop()

	rng := rand.New(rand.NewSource(11))
	a, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	aDone := make(chan byte, 1)
	go func() {
		_, status, err := a.Decide(1, 10, randState(rng))
		if err != nil {
			t.Errorf("admitted decide: %v", err)
		}
		aDone <- status
	}()
	<-hold.Held()
	cwnd, status, err := b.Decide(2, 17, randState(rand.New(rand.NewSource(12))))
	if err != nil {
		t.Fatalf("overloaded decide errored: %v (must be an explicit reply)", err)
	}
	if status != serve.StatusOverload {
		t.Fatalf("status = %d, want StatusOverload", status)
	}
	if cwnd != 17 {
		t.Fatalf("OVERLOAD reply cwnd = %v, want the request echoed (17)", cwnd)
	}
	if ra := b.RetryAfter(); ra <= 0 {
		t.Fatalf("RetryAfter = %v, want a positive jittered hint", ra)
	}
	hold.Release()
	if st := <-aDone; st != serve.StatusOK && st != serve.StatusFallback {
		t.Fatalf("admitted request finished with status %d", st)
	}
	if reg.Counter(serve.MetricOverloadShed).Value() == 0 {
		t.Fatal("shed counter not incremented")
	}
}

// The health verb answers with a readiness document including the
// server-side connection count.
func TestWireHealthVerb(t *testing.T) {
	eng := serve.NewEngine(serve.Config{
		Policy:   testPolicy(47),
		Workers:  1,
		Overload: &serve.OverloadConfig{},
	})
	sock, stop := startServer(t, eng)
	defer stop()

	cl, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	doc, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Health
	if err := json.Unmarshal([]byte(doc), &h); err != nil {
		t.Fatalf("health doc %q: %v", doc, err)
	}
	if !h.Protected || h.Mode != "full" || !h.Ready() {
		t.Fatalf("health = %+v, want protected, full, ready", h)
	}
	// At least this probe's connection; the startup probe's may not have
	// been reaped yet.
	if h.Conns < 1 {
		t.Fatalf("health conns = %d, want ≥ 1", h.Conns)
	}
}

// Accepts beyond MaxConns are shed with one explicit OVERLOAD frame — a
// connection storm cannot stack handler goroutines.
func TestServerMaxConns(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{
		Policy:   testPolicy(53),
		Workers:  1,
		Metrics:  reg,
		Overload: &serve.OverloadConfig{},
	})
	sock := filepath.Join(t.TempDir(), "sage.sock")
	srv := serve.NewServer(eng)
	srv.MaxConns = 1
	go srv.ListenAndServe(sock)
	defer srv.Shutdown()

	var first *serve.Client
	var err error
	for i := 0; i < 200; i++ {
		first, err = serve.Dial(sock)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, _, err := first.Decide(1, 10, randState(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatalf("first connection: %v", err)
	}

	second, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetTimeout(2 * time.Second)
	_, status, err := second.Decide(2, 10, randState(rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatalf("shed connection got %v, want an explicit OVERLOAD frame", err)
	}
	if status != serve.StatusOverload {
		t.Fatalf("shed connection status = %d, want StatusOverload", status)
	}
	if ra := second.RetryAfter(); ra <= 0 {
		t.Fatalf("shed connection RetryAfter = %v, want positive", ra)
	}
	if reg.Counter(serve.MetricOverloadConnShed).Value() != 1 {
		t.Fatalf("conn_shed = %d, want 1", reg.Counter(serve.MetricOverloadConnShed).Value())
	}
}

// A canceled context aborts the connect instead of blocking on a hung
// daemon, and a dead socket path fails within the dial bound.
func TestDialContextAndTimeout(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(59), Workers: 1})
	sock, stop := startServer(t, eng)
	defer stop()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := serve.DialContext(ctx, sock); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled dial: %v, want context.Canceled", err)
	}

	start := time.Now()
	_, err := serve.DialTimeout(filepath.Join(t.TempDir(), "absent.sock"), 500*time.Millisecond)
	if err == nil {
		t.Fatal("dial to absent socket succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial failure took %v, want bounded", elapsed)
	}

	// The priority byte round-trips: a high-priority client is served
	// normally at full service.
	cl, err := serve.DialContext(context.Background(), sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetHighPriority(true)
	if _, status, err := cl.Decide(1, 10, randState(rand.New(rand.NewSource(6)))); err != nil || (status != serve.StatusOK && status != serve.StatusFallback) {
		t.Fatalf("high-priority decide: status %d, err %v", status, err)
	}
}

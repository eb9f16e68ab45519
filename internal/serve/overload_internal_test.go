package serve

import (
	"errors"
	"testing"
	"time"

	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/telemetry"
)

func plainPolicy() *nn.Policy { return nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim}) }

// forceMode pins the ladder to a rung for tests that exercise behavior at
// that rung without having to manufacture the load that reaches it.
func forceMode(e *Engine, m Mode) {
	e.ov.mu.Lock()
	e.ov.setModeLocked(m)
	e.ov.healthy = 0
	e.ov.mu.Unlock()
}

func overloadEngine(cfg OverloadConfig) *Engine {
	return NewEngine(Config{
		Policy:        plainPolicy(),
		MaxBatch:      8,
		BatchDeadline: 200 * time.Microsecond,
		Workers:       2,
		Overload:      &cfg,
	})
}

// The ladder escalates immediately on breach — possibly several rungs at
// once — and de-escalates one rung per healthyEvals calm windows, so full
// recovery is bounded by 3×healthyEvals evaluation windows.
func TestLadderEscalateAndBoundedRecovery(t *testing.T) {
	o := newOverload(OverloadConfig{MaxInflight: 100}, 8, time.Millisecond, nil)
	now := time.Now()

	o.notePeak(100) // 100% occupancy: straight to draining
	o.eval(now, true)
	if got := o.mode(); got != ModeDraining {
		t.Fatalf("mode after saturation = %v, want draining", got)
	}

	// Calm windows: one rung per healthyEvals, so at most 3×healthyEvals
	// windows from draining back to full.
	evals := 0
	for o.mode() != ModeFull {
		o.eval(now, true)
		evals++
		if evals > 3*healthyEvals {
			t.Fatalf("still at %v after %d calm windows", o.mode(), evals)
		}
	}
	if evals != 3*healthyEvals {
		t.Errorf("recovered in %d windows, want exactly %d (one rung per healthyEvals)", evals, 3*healthyEvals)
	}

	// A breach mid-recovery resets the hysteresis counter: healthyEvals-1
	// calm windows on each side of it never add up to a de-escalation.
	o.notePeak(60) // 60% ≥ shedFrac
	o.eval(now, true)
	if got := o.mode(); got != ModeShedShadow {
		t.Fatalf("mode after 60%% occupancy = %v, want shed-shadow", got)
	}
	for i := 0; i < healthyEvals-1; i++ {
		o.eval(now, true) // healthy = i+1
	}
	o.notePeak(60)
	o.eval(now, true) // breach again: healthy back to 0
	if got := o.mode(); got != ModeShedShadow {
		t.Fatalf("mode after second 60%% breach = %v, want shed-shadow", got)
	}
	for i := 0; i < healthyEvals-1; i++ {
		o.eval(now, true)
	}
	if got := o.mode(); got != ModeShedShadow {
		t.Fatalf("mode flapped to %v despite unexpired hysteresis", got)
	}
	o.eval(now, true) // healthy = healthyEvals
	if got := o.mode(); got != ModeFull {
		t.Fatalf("mode after %d calm windows = %v, want full", healthyEvals, got)
	}
}

// Each budget signal maps to its documented rung.
func TestLadderSignalRungs(t *testing.T) {
	now := time.Now()

	cases := []struct {
		name string
		load func(o *overload)
		want Mode
	}{
		{"batch-wait p99 breach", func(o *overload) {
			for i := 0; i < 100; i++ {
				o.noteBatchWait(time.Microsecond)
			}
			for i := 0; i < 5; i++ {
				o.noteBatchWait(time.Second) // 5% > waitBreachFrac
			}
		}, ModeShedShadow},
		{"decision deadline misses", func(o *overload) {
			for i := 0; i < 90; i++ {
				o.noteLatency(time.Millisecond)
			}
			for i := 0; i < 10; i++ {
				o.noteLatency(time.Second) // 10% > missBreachFrac
			}
		}, ModeDegraded},
		{"occupancy at degrade fraction", func(o *overload) {
			o.notePeak(80) // 80% ≥ DegradeFrac
		}, ModeDegraded},
	}
	for _, tc := range cases {
		o := newOverload(OverloadConfig{MaxInflight: 100, DecisionBudget: 250 * time.Millisecond}, 8, time.Millisecond, nil)
		tc.load(o)
		o.eval(now, true)
		if got := o.mode(); got != tc.want {
			t.Errorf("%s: mode = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// At ModeDegraded the async path serves low-priority requests with the
// explicit cheap fallback — instantly, without touching session state —
// while high-priority requests still run the learned policy.
func TestDecideBrownoutPriority(t *testing.T) {
	eng := overloadEngine(OverloadConfig{MaxInflight: 1024})
	eng.Start()
	defer eng.Close()
	forceMode(eng, ModeDegraded)

	state := make([]float64, gr.StateDim)
	w, fb, err := eng.DecidePri(1, 10, state, false)
	if err != nil || !fb {
		t.Fatalf("low-pri under brownout: (%v, fb=%v, %v), want explicit fallback", w, fb, err)
	}
	if w != 10 {
		t.Fatalf("low-pri fallback cwnd = %v, want the clamped echo 10", w)
	}
	if n := eng.Sessions(); n != 0 {
		t.Fatalf("cheap path materialized %d sessions, want 0", n)
	}

	if _, _, err := eng.DecidePri(2, 10, state, true); err != nil {
		t.Fatalf("high-pri under brownout: %v, want served", err)
	}
	if n := eng.Sessions(); n != 1 {
		t.Fatalf("high-pri decision left %d sessions, want 1", n)
	}

	// ModeDraining: resident sessions drain on the cheap path, unknown
	// sessions are rejected with the typed error.
	forceMode(eng, ModeDraining)
	if _, fb, err := eng.DecidePri(2, 10, state, true); err != nil || !fb {
		t.Fatalf("draining resident session: (fb=%v, %v), want cheap fallback", fb, err)
	}
	_, _, err = eng.DecidePri(99, 10, state, true)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("draining new session: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("rejection %v carries no retry-after hint", err)
	}
	base := baseRetryAfter
	if oe.RetryAfter < base/2 || oe.RetryAfter >= base/2+base {
		t.Fatalf("retry-after %v outside jitter range [%v, %v)", oe.RetryAfter, base/2, base/2+base)
	}
	if n := eng.Sessions(); n != 1 {
		t.Fatalf("rejected decide changed session count to %d", n)
	}
}

// The global in-flight cap rejects rather than queues: with MaxInflight=1
// and the worker parked on the first request, a second concurrent Decide
// must get the typed overload error, and an undone admission must not leak
// queue slots.
func TestDecideInflightCap(t *testing.T) {
	eng := NewEngine(Config{
		Policy:   plainPolicy(),
		Workers:  1,
		Overload: &OverloadConfig{MaxInflight: 1, EvalInterval: time.Hour},
	})
	hold := HoldWorker(eng)
	eng.Start()
	defer eng.Close()

	state := make([]float64, gr.StateDim)
	first := make(chan error, 1)
	go func() {
		_, _, err := eng.Decide(1, 10, state)
		first <- err
	}()
	<-hold.Held()
	if _, _, err := eng.Decide(2, 10, state); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("decide over cap: %v, want ErrOverloaded", err)
	}
	// The rejected session must be released for a future attempt.
	eng.mu.Lock()
	s2 := eng.sessions[2]
	busy := s2 != nil && s2.busy
	eng.mu.Unlock()
	if busy {
		t.Fatal("rejected session left busy")
	}
	hold.Release()
	if err := <-first; err != nil {
		t.Fatalf("admitted decide failed: %v", err)
	}
	if got := eng.queued.Load(); got != 0 {
		t.Fatalf("queued = %d after drain, want 0", got)
	}
	if eng.ov.shedT.Load() == 0 {
		t.Fatal("shed total not incremented")
	}
}

// Batch wait is what a request waited for a worker, not what a batcher chose
// to hold it: a request queued behind a busy worker pool shows its whole wait
// in serve.batch_wait_us and against the batch-wait budget.
func TestBatchWaitCountsTimeBehindBusyWorkers(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := NewEngine(Config{
		Policy:        plainPolicy(),
		BatchDeadline: time.Millisecond / waitBudgetDeadlines, // a 1 ms batch-wait budget
		Workers:       1,
		Metrics:       reg,
		Overload:      &OverloadConfig{EvalInterval: time.Hour},
	})
	hold := HoldWorker(eng)
	eng.Start()
	defer eng.Close()

	state := make([]float64, gr.StateDim)
	errs := make(chan error, 2)
	decide := func(sid uint64) {
		_, _, err := eng.Decide(sid, 10, state)
		errs <- err
	}
	go decide(1)
	<-hold.Held()
	over := eng.ov.waitOver.Load() // the held request's own wait is already noted
	go decide(2)
	for i := 0; eng.QueueLen() == 0; i++ {
		if i > 5000 {
			t.Fatal("second decide never queued")
		}
		time.Sleep(time.Millisecond)
	}
	queuedAt := time.Now()
	time.Sleep(5 * eng.ov.waitBudget)
	waited := time.Since(queuedAt)
	hold.Release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Histogram(MetricBatchWaitUs).Summary().Max; got < float64(waited.Microseconds()) {
		t.Errorf("largest %s = %vµs, want ≥ the %v the request sat queued", MetricBatchWaitUs, got, waited)
	}
	if got := eng.ov.waitOver.Load() - over; got != 1 {
		t.Errorf("waits over budget rose by %d, want 1 (the queued request)", got)
	}
}

// Health reflects the ladder and its counters; readiness covers exactly
// the rungs where live flows still get full learned service.
func TestHealthDoc(t *testing.T) {
	eng := overloadEngine(OverloadConfig{MaxInflight: 1024})
	eng.Start()
	defer eng.Close()

	h := eng.Health()
	if !h.Protected || h.Mode != "full" || !h.Ready() {
		t.Fatalf("baseline health = %+v, want protected, full, ready", h)
	}
	forceMode(eng, ModeShedShadow)
	if h := eng.Health(); !h.Ready() {
		t.Fatalf("shed-shadow not ready: %+v (live flows are unaffected at this rung)", h)
	}
	forceMode(eng, ModeDegraded)
	if h := eng.Health(); h.Ready() {
		t.Fatalf("degraded reported ready: %+v", h)
	}
	state := make([]float64, gr.StateDim)
	if _, _, err := eng.Decide(7, 10, state); err != nil {
		t.Fatal(err)
	}
	if h := eng.Health(); h.Degraded == 0 {
		t.Fatalf("health after degraded decision = %+v, want Degraded > 0", h)
	}

	// An unprotected engine is always ready at mode "full".
	plain := NewEngine(Config{Policy: plainPolicy()})
	if h := plain.Health(); h.Protected || !h.Ready() {
		t.Fatalf("unprotected health = %+v, want unprotected and ready", h)
	}
}

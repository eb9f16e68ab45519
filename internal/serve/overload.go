package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sage/internal/telemetry"
)

// Mode is a rung of the brownout degradation ladder. The engine escalates
// immediately when load breaches a budget and de-escalates one rung at a
// time after sustained healthy windows (hysteresis), so recovery back to
// full service happens within a bounded, configurable time of load
// dropping — and never flaps.
type Mode int32

const (
	// ModeFull is normal operation: every admitted decision runs the
	// learned policy and shadow mirroring is active.
	ModeFull Mode = iota
	// ModeShedShadow keeps serving the learned policy but pauses shadow /
	// canary mirroring (the PR 8 Shadow observer): candidate evaluation is
	// the first load to go, before any live flow feels anything.
	ModeShedShadow
	// ModeDegraded serves low-priority flows with the cheap ratio-1.0
	// fallback path (no forward pass; a guard-wrapped flow trips to its
	// Cubic heuristic). High-priority flows still get the learned policy.
	// Decisions are always produced — degradation is never silence.
	ModeDegraded
	// ModeDraining admits no new sessions: unknown sessions are rejected
	// with a typed OVERLOAD reply and resident sessions are served the
	// cheap fallback path while the backlog drains.
	ModeDraining
)

// String names the rung for health documents and logs.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeShedShadow:
		return "shed-shadow"
	case ModeDegraded:
		return "degraded"
	case ModeDraining:
		return "draining"
	default:
		return fmt.Sprintf("mode(%d)", int32(m))
	}
}

// Overload metric names (the serve.overload.* family).
const (
	MetricOverloadMode        = "serve.overload.mode"           // gauge: current Mode as 0..3
	MetricOverloadTransitions = "serve.overload.transitions"    // ladder mode changes, either direction
	MetricOverloadAdmitted    = "serve.overload.admitted"       // async decisions admitted past admission control
	MetricOverloadShed        = "serve.overload.shed"           // decisions rejected with a typed OVERLOAD reply
	MetricOverloadDegraded    = "serve.overload.degraded"       // decisions served via the cheap ratio-1.0 path
	MetricOverloadShadowShed  = "serve.overload.shadow_shed"    // decisions not mirrored to the shadow observer
	MetricOverloadMisses      = "serve.overload.deadline_miss"  // admitted decisions that blew DecisionBudget
	MetricOverloadConnShed    = "serve.overload.conn_shed"      // connections rejected at accept by MaxConns
	MetricOverloadRetryMs     = "serve.overload.retry_after_ms" // histogram of retry-after hints handed out
)

// OverloadError is the typed rejection admission control returns instead
// of queueing work it cannot serve in time. RetryAfter is a jittered hint
// (also carried to protocol clients in the OVERLOAD reply) so a thundering
// herd of retries does not arrive in phase.
type OverloadError struct {
	RetryAfter time.Duration
	Mode       Mode
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", e.Mode, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match any OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// ErrOverloaded is the errors.Is target for typed OverloadError rejections.
var ErrOverloaded = fmt.Errorf("serve: overloaded")

// OverloadConfig enables admission control and the brownout ladder on an
// Engine. The zero value of every field is a usable default; a nil
// *OverloadConfig in Config disables overload protection entirely
// (historical behavior: unbounded queues, no shedding).
type OverloadConfig struct {
	// MaxInflight caps async decisions admitted but not yet answered
	// (default 8×MaxBatch). At the cap Decide rejects with an
	// OverloadError instead of queueing: queue growth is bounded and the
	// caller learns immediately. It also caps how much of one synchronous
	// Flush backlog runs the learned policy; overflow is served the cheap
	// ratio-1.0 path rather than growing the batched pass without bound.
	MaxInflight int
	// DecisionBudget is the end-to-end latency budget for one admitted
	// async decision (default 250ms). Windows where >5% of decisions miss
	// it escalate straight to ModeDegraded: stale decisions degrade flows
	// worse than explicit fallback does.
	DecisionBudget time.Duration
	// EvalInterval is the ladder evaluation period (default 10ms).
	EvalInterval time.Duration
}

// fill applies defaults; maxBatch comes from the engine config the
// overload layer is attached to.
func (c OverloadConfig) fill(maxBatch int) OverloadConfig {
	if c.MaxInflight == 0 {
		c.MaxInflight = 8 * maxBatch
	}
	if c.DecisionBudget == 0 {
		c.DecisionBudget = 250 * time.Millisecond
	}
	if c.EvalInterval == 0 {
		c.EvalInterval = 10 * time.Millisecond
	}
	return c
}

// Breach fractions for the windowed budget signals: a window where >1% of
// batches waited past the batch-wait budget approximates "batch-wait p99
// over budget"; >5% of decisions missing DecisionBudget is conclusive
// staleness, not noise.
const (
	waitBreachFrac = 0.01
	missBreachFrac = 0.05
)

// waitBudgetDeadlines is the batch-wait budget in units of the engine's
// BatchDeadline: the budget is on the time from a batch's oldest
// admission to the start of its pass.
const waitBudgetDeadlines = 50

// healthyEvals is how many consecutive healthy windows de-escalate one
// rung. Full recovery from ModeDraining is therefore bounded by
// 3×healthyEvals×EvalInterval after load subsides.
const healthyEvals = 10

// baseRetryAfter is the base client retry hint; each rejection jitters it
// uniformly in [baseRetryAfter/2, 3·baseRetryAfter/2).
const baseRetryAfter = 50 * time.Millisecond

// The queue-occupancy rungs: when the window's peak in-flight count
// reaches this fraction of MaxInflight the ladder escalates to
// shed-shadow / degraded / draining respectively.
const (
	shedFrac    = 0.5
	degradeFrac = 0.75
	drainFrac   = 0.95
)

// overload is the engine's load controller: admission counters feed
// per-window signals, eval steps the ladder, and totals back the Health
// document. Signal recording is atomics-only (hot path); eval and the
// retry-jitter RNG serialize on mu.
type overload struct {
	cfg        OverloadConfig
	waitBudget time.Duration // waitBudgetDeadlines × the engine's BatchDeadline
	metrics    *telemetry.Registry

	modeA atomic.Int32

	// Per-window signals, swapped out at each eval.
	peak     atomic.Int64 // max in-flight seen since last eval
	waits    atomic.Int64 // batches started since last eval
	waitOver atomic.Int64 // ...of which waited past waitBudget
	decided  atomic.Int64 // admitted decisions completed since last eval
	missed   atomic.Int64 // ...of which blew DecisionBudget

	// Running totals for Health (metrics may be nil, so the controller is
	// its own source of truth).
	admittedT, shedT, degradedT, shadowShedT, missedT, transitionsT atomic.Int64

	mu       sync.Mutex
	healthy  int // consecutive windows below the current rung
	lastEval time.Time
	rng      *rand.Rand
}

func newOverload(cfg OverloadConfig, maxBatch int, deadline time.Duration, metrics *telemetry.Registry) *overload {
	o := &overload{
		cfg:        cfg.fill(maxBatch),
		waitBudget: waitBudgetDeadlines * deadline,
		metrics:    metrics,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	metrics.Gauge(MetricOverloadMode).Set(0)
	return o
}

func (o *overload) mode() Mode { return Mode(o.modeA.Load()) }

// notePeak records an in-flight high-water mark (CAS max).
func (o *overload) notePeak(n int64) {
	for {
		p := o.peak.Load()
		if n <= p || o.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (o *overload) noteAdmitted() {
	o.admittedT.Add(1)
	o.metrics.Counter(MetricOverloadAdmitted).Inc()
}

func (o *overload) noteBatchWait(d time.Duration) {
	o.waits.Add(1)
	if d > o.waitBudget {
		o.waitOver.Add(1)
	}
}

func (o *overload) noteLatency(d time.Duration) {
	o.decided.Add(1)
	if d > o.cfg.DecisionBudget {
		o.missed.Add(1)
		o.missedT.Add(1)
		o.metrics.Counter(MetricOverloadMisses).Inc()
	}
}

func (o *overload) noteDegraded(n int64) {
	o.degradedT.Add(n)
	o.metrics.Counter(MetricOverloadDegraded).Add(n)
}

func (o *overload) noteShadowShed(n int64) {
	o.shadowShedT.Add(n)
	o.metrics.Counter(MetricOverloadShadowShed).Add(n)
}

// retryAfter returns the jittered retry hint.
func (o *overload) retryAfter() time.Duration {
	o.mu.Lock()
	j := time.Duration(o.rng.Int63n(int64(baseRetryAfter)))
	o.mu.Unlock()
	return baseRetryAfter/2 + j
}

// reject builds the typed rejection for one shed decision.
func (o *overload) reject(m Mode) *OverloadError {
	ra := o.retryAfter()
	o.shedT.Add(1)
	o.metrics.Counter(MetricOverloadShed).Inc()
	o.metrics.Histogram(MetricOverloadRetryMs).Observe(float64(ra.Milliseconds()))
	return &OverloadError{RetryAfter: ra, Mode: m}
}

// maybeEval closes the current window if EvalInterval has elapsed; eval
// with force=true (the async ticker, OverloadTick) always closes it.
func (o *overload) maybeEval(now time.Time) { o.eval(now, false) }

func (o *overload) eval(now time.Time, force bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !force && now.Sub(o.lastEval) < o.cfg.EvalInterval {
		return
	}
	o.lastEval = now

	peak := o.peak.Swap(0)
	waits, over := o.waits.Swap(0), o.waitOver.Swap(0)
	dec, miss := o.decided.Swap(0), o.missed.Swap(0)

	frac := float64(peak) / float64(o.cfg.MaxInflight)
	target := ModeFull
	if frac >= shedFrac {
		target = ModeShedShadow
	}
	if waits > 0 && float64(over)/float64(waits) > waitBreachFrac {
		target = max(target, ModeShedShadow)
	}
	if frac >= degradeFrac {
		target = max(target, ModeDegraded)
	}
	if dec > 0 && float64(miss)/float64(dec) > missBreachFrac {
		target = max(target, ModeDegraded)
	}
	if frac >= drainFrac {
		target = ModeDraining
	}

	cur := Mode(o.modeA.Load())
	switch {
	case target > cur:
		// Escalate immediately, possibly several rungs: overload is now.
		o.setModeLocked(target)
		o.healthy = 0
	case target < cur:
		// De-escalate one rung per healthyEvals consecutive calm windows:
		// hysteresis keeps a marginal daemon from flapping between modes.
		o.healthy++
		if o.healthy >= healthyEvals {
			o.setModeLocked(cur - 1)
			o.healthy = 0
		}
	default:
		o.healthy = 0
	}
}

func (o *overload) setModeLocked(m Mode) {
	o.modeA.Store(int32(m))
	o.transitionsT.Add(1)
	o.metrics.Counter(MetricOverloadTransitions).Inc()
	o.metrics.Gauge(MetricOverloadMode).Set(float64(m))
}

// Health is the point-in-time readiness document the daemon's health verb
// returns: the ladder mode plus the admission counters that explain it.
type Health struct {
	Mode           string `json:"mode"`
	Protected      bool   `json:"overload_protection"`
	QueueDepth     int64  `json:"queue_depth"`
	Sessions       int    `json:"sessions"`
	Admitted       int64  `json:"admitted"`
	Shed           int64  `json:"shed"`
	Degraded       int64  `json:"degraded"`
	ShadowShed     int64  `json:"shadow_shed"`
	DeadlineMisses int64  `json:"deadline_misses"`
	Transitions    int64  `json:"mode_transitions"`
	Conns          int    `json:"conns,omitempty"`    // filled by the Server
	Draining       bool   `json:"draining,omitempty"` // server shutdown in progress
}

// Ready reports whether the plane is serving full learned service (the
// readiness-probe criterion: full or shed-shadow — live flows unaffected).
func (h Health) Ready() bool {
	return h.Mode == ModeFull.String() || h.Mode == ModeShedShadow.String()
}

// ---------------------------------------------------------------------------
// Engine surface.

// OverloadMode reports the current brownout rung (ModeFull when overload
// protection is disabled).
func (e *Engine) OverloadMode() Mode {
	if e.ov == nil {
		return ModeFull
	}
	return e.ov.mode()
}

// OverloadActive reports whether the engine is anywhere on the brownout
// ladder above full service. The promotion manager masks its demotion
// watchdog while this is true: overload-driven fallback storms are a
// capacity problem, not a model regression.
func (e *Engine) OverloadActive() bool { return e.OverloadMode() != ModeFull }

// OverloadTick forces one ladder evaluation window to close now. The
// async path runs this from an internal ticker; the synchronous path runs
// it on Flush. Exposed so tests and embedding daemons can drive the
// ladder deterministically.
func (e *Engine) OverloadTick() {
	if e.ov != nil {
		e.ov.eval(time.Now(), true)
	}
}

// Health returns the engine's overload/readiness document.
func (e *Engine) Health() Health {
	h := Health{
		Mode:       e.OverloadMode().String(),
		QueueDepth: e.queued.Load(),
		Sessions:   e.Sessions(),
	}
	if e.ov != nil {
		h.Protected = true
		h.Admitted = e.ov.admittedT.Load()
		h.Shed = e.ov.shedT.Load()
		h.Degraded = e.ov.degradedT.Load()
		h.ShadowShed = e.ov.shadowShedT.Load()
		h.DeadlineMisses = e.ov.missedT.Load()
		h.Transitions = e.ov.transitionsT.Load()
	}
	return h
}

// retryHint is the jittered retry-after the server quotes when shedding
// at accept time (50ms fixed when overload protection is off).
func (e *Engine) retryHint() time.Duration {
	if e.ov == nil {
		return baseRetryAfter
	}
	return e.ov.retryAfter()
}

// overloadLoop is the async-path ladder driver, started by Start when
// overload protection is configured. stop is captured at spawn: Close
// nils the field it came from, and re-reading it here would turn the
// select into a forever-blocking receive on a nil channel.
func (e *Engine) overloadLoop(stop <-chan struct{}) {
	defer e.wg.Done()
	t := time.NewTicker(e.ov.cfg.EvalInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			e.ov.eval(now, true)
		}
	}
}

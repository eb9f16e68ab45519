// Package guard is the runtime safety layer around policy inference: a
// GuardedController wraps any rollout.Controller (rl.PolicyController,
// core.Agent, or a baseline) and validates every control decision before
// it reaches the connection. When the policy misbehaves — a non-finite
// state vector or window, a sustained stall, or a collapsed cwnd — the
// guardian switches the connection to a heuristic fallback (Cubic by
// default) via tcp.Conn.SwitchCC, exactly as a production deployment
// would rather than let a NaN in a forward pass blackhole a user's
// connection. After a probation window on the fallback the policy is
// re-admitted; every re-trip doubles the next probation (hysteresis), so
// a persistently broken policy converges to running the heuristic while a
// transiently confused one gets its connection back.
//
// Every trip and restore is recorded through internal/telemetry: counters
// in an optional Registry plus an in-memory event log exportable as
// JSONL.
package guard

import (
	"math"

	"sage/internal/cc"
	"sage/internal/rollout"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// resettable is implemented by controllers with recurrent state
// (core.Agent, rl.PolicyController); the guardian resets them on
// re-admission so the policy restarts from a clean hidden state instead
// of one poisoned by the episode that tripped it.
type resettable interface{ Reset() }

// Config tunes the guardian. The zero value is usable.
type Config struct {
	// Metrics, when non-nil, receives the guard.* counters. Nil costs
	// nothing (telemetry counters are nil-safe).
	Metrics *telemetry.Registry
}

// The guardian's fixed thresholds. The cwnd floor and hard ceiling are
// tcp.MinCwnd and tcp.MaxCwnd.
const (
	bdpMult      = 8 // adaptive ceiling: bdpMult × estimated BDP packets
	maxStepRatio = 4 // max multiplicative cwnd change per control interval
	// stallIntervals is K: consecutive control intervals without delivery
	// progress (while data is outstanding) before the watchdog trips.
	stallIntervals = 8
	// collapseIntervals is how many consecutive intervals the window may
	// sit at the floor before the watchdog declares cwnd collapse.
	collapseIntervals = 16
	// baseProbation is how many healthy control intervals the fallback
	// must serve before the policy is re-admitted. Each subsequent trip
	// doubles the next probation, up to maxProbation.
	baseProbation = 32
	maxProbation  = 8 * baseProbation
)

// newFallback builds the heuristic the connection falls back to on a trip.
// A fresh instance is built per trip, so fallback state never leaks
// across episodes.
func newFallback() tcp.CongestionControl { return cc.MustNew("cubic") }

// Event is one guardian transition, in JSONL-friendly form.
type Event struct {
	AtUs   int64   `json:"t_us"`
	Kind   string  `json:"event"`  // "trip" or "restore"
	Reason string  `json:"reason"` // what tripped ("" for restores)
	Cwnd   float64 `json:"cwnd_pkts"`
	Trip   int     `json:"trip"` // 1-based trip episode this event belongs to
}

// Trip/restore reasons.
const (
	ReasonBadState     = "non-finite state vector"
	ReasonBadCwnd      = "non-finite cwnd after inference"
	ReasonStall        = "sustained stall"
	ReasonCollapse     = "cwnd collapse"
	ReasonSwapReprime  = "hot-swap re-prime failed"
	ReasonOverload     = "serving-plane overload brownout"
	KindTrip           = "trip"
	KindRestore        = "restore"
	MetricTrips        = "guard.trips"
	MetricRestores     = "guard.restores"
	MetricBadStates    = "guard.bad_states"
	MetricBadCwnds     = "guard.bad_cwnds"
	MetricStallTrips   = "guard.stall_trips"
	MetricCollapses    = "guard.collapse_trips"
	MetricSwapTrips    = "guard.swap_trips"
	MetricBrownoutTrps = "guard.brownout_trips"
	MetricClamps       = "guard.clamps"
	MetricFallbackTks  = "guard.fallback_intervals"
)

// degradable is implemented by controllers that can be pinned to fallback
// decisions by a failed model hot-swap (serve.Controller): the engine
// could not migrate the flow's recurrent state onto the new model, so its
// rows come back as safety no-ops. The guardian polls this and trips such
// a flow to the heuristic outright — the fallback actually controls the
// window, and the post-probation restore resets the session against the
// new incumbent.
type degradable interface{ Degraded() bool }

// brownable is implemented by controllers whose backing engine can enter
// an overload brownout (serve.Controller): the engine is serving this
// flow the cheap ratio-1.0 path, so a frozen window is all the policy
// path can offer. The guardian trips such a flow to the heuristic — Cubic
// genuinely controlling the window beats a window pinned in place — and
// the usual probation re-admits the policy once the engine recovers.
type brownable interface{ BrownedOut() bool }

// GuardedController validates a wrapped controller's every decision and
// owns the trip/fallback/re-admission state machine. It implements
// rollout.Controller and is not safe for concurrent use (neither are the
// controllers it wraps — one instance per flow).
type GuardedController struct {
	inner rollout.Controller
	cfg   Config

	origCC       tcp.CongestionControl // the module the policy drives (captured at first tick)
	tripped      bool
	probation    int // intervals left in the current fallback episode
	curProbation int // probation length of the current episode (hysteresis doubles it)
	trips        int
	restores     int
	stallTicks   int
	floorTicks   int
	clamps       int64
	lastDeliver  int64
	seen         bool
	events       []Event
}

// New wraps inner in a guardian.
func New(inner rollout.Controller, cfg Config) *GuardedController {
	return &GuardedController{inner: inner, cfg: cfg}
}

// BatchGuarded is a GuardedController over a batching controller. It
// forwards FlushBatch so rollout's per-interval flush still reaches the
// shared engine when the policy path is guarded. It is a separate type —
// rather than a FlushBatch method on GuardedController — so that only
// genuinely batching controllers satisfy rollout.BatchFlusher; rollout
// skips its inline Kick for flushers, which would stall a non-batching
// guarded flow.
//
// A tripped guard never calls the inner controller, so a tripped flow
// simply contributes no row to the batch: the remaining flows' batch
// proceeds without stalling on it.
type BatchGuarded struct {
	*GuardedController
	flusher rollout.BatchFlusher
}

// NewBatched wraps a batching controller (e.g. serve.Controller) in a
// guardian that keeps the flush path intact.
func NewBatched(inner interface {
	rollout.Controller
	rollout.BatchFlusher
}, cfg Config) *BatchGuarded {
	return &BatchGuarded{GuardedController: New(inner, cfg), flusher: inner}
}

// FlushBatch implements rollout.BatchFlusher.
func (b *BatchGuarded) FlushBatch(now sim.Time) { b.flusher.FlushBatch(now) }

// Control implements rollout.Controller.
func (g *GuardedController) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	if !g.seen {
		g.seen = true
		g.origCC = conn.CC()
		g.lastDeliver = conn.Delivered()
	}
	delivered := conn.Delivered()
	progressed := delivered > g.lastDeliver
	g.lastDeliver = delivered

	if g.tripped {
		g.cfg.Metrics.Counter(MetricFallbackTks).Inc()
		// Hysteresis: probation only elapses while the fallback is
		// actually delivering — a dead link does not count toward
		// re-admitting the policy.
		if progressed {
			g.probation--
			if g.probation <= 0 {
				g.restore(now, conn)
			}
		}
		return
	}

	// 1. A hot-swap that failed to migrate this flow's recurrent state has
	// pinned it to no-op decisions; running the heuristic beats holding the
	// window frozen, so trip immediately.
	if d, ok := g.inner.(degradable); ok && d.Degraded() {
		g.cfg.Metrics.Counter(MetricSwapTrips).Inc()
		g.trip(now, conn, ReasonSwapReprime)
		return
	}

	// 1b. The serving plane is in overload brownout and would serve this
	// flow the cheap ratio-1.0 path anyway: trip to the heuristic so a real
	// congestion controller owns the window for the duration.
	if b, ok := g.inner.(brownable); ok && b.BrownedOut() {
		g.cfg.Metrics.Counter(MetricBrownoutTrps).Inc()
		g.trip(now, conn, ReasonOverload)
		return
	}

	// 2. Validate the observation before it reaches the network.
	if !finiteVec(state) {
		g.cfg.Metrics.Counter(MetricBadStates).Inc()
		g.trip(now, conn, ReasonBadState)
		return
	}

	before := conn.Cwnd
	g.inner.Control(now, conn, state)
	w := conn.Cwnd

	// 3. Validate the inference result (a NaN anywhere in the forward
	// pass, the GMM head, or the sampled action surfaces as a non-finite
	// window, since cwnd *= 2^u).
	if math.IsNaN(w) || math.IsInf(w, 0) {
		g.cfg.Metrics.Counter(MetricBadCwnds).Inc()
		g.trip(now, conn, ReasonBadCwnd)
		return
	}

	// 4. Sanity-bound the action: per-interval multiplicative step, floor,
	// and a ceiling keyed to the BDP estimate.
	clamped := w
	if before > 0 && !math.IsNaN(before) {
		if max := before * maxStepRatio; clamped > max {
			clamped = max
		}
		if min := before / maxStepRatio; clamped < min {
			clamped = min
		}
	}
	clamped = tcp.ClampCwnd(clamped, tcp.MinCwnd, g.ceiling(conn))
	if clamped != w {
		g.clamps++
		g.cfg.Metrics.Counter(MetricClamps).Inc()
		conn.SetCwnd(clamped)
	}

	// 5. Watchdog: sustained stall and cwnd collapse.
	if !progressed && conn.InflightPkts() > 0 {
		g.stallTicks++
	} else {
		g.stallTicks = 0
	}
	if conn.Cwnd <= tcp.MinCwnd {
		g.floorTicks++
	} else {
		g.floorTicks = 0
	}
	switch {
	case g.stallTicks >= stallIntervals:
		g.cfg.Metrics.Counter(MetricStallTrips).Inc()
		g.trip(now, conn, ReasonStall)
	case g.floorTicks >= collapseIntervals:
		g.cfg.Metrics.Counter(MetricCollapses).Inc()
		g.trip(now, conn, ReasonCollapse)
	}
}

// ceiling returns the adaptive cwnd ceiling: bdpMult × the BDP estimated
// from the max delivery rate and min RTT, bounded by tcp.MaxCwnd. Before any
// delivery-rate sample exists the hard ceiling applies alone.
func (g *GuardedController) ceiling(conn *tcp.Conn) float64 {
	bdpPkts := conn.MaxDeliveryRate() * conn.MinRTT().Seconds() / float64(conn.MSS())
	if bdpPkts <= 0 || math.IsNaN(bdpPkts) || math.IsInf(bdpPkts, 0) {
		return tcp.MaxCwnd
	}
	ceil := bdpMult * bdpPkts
	// Never strangle startup: a fresh flow's delivery-rate estimate
	// lowballs the true BDP until the pipe fills.
	if ceil < 4*tcp.MinCwnd+10 {
		ceil = 4*tcp.MinCwnd + 10
	}
	if ceil > tcp.MaxCwnd {
		ceil = tcp.MaxCwnd
	}
	return ceil
}

func (g *GuardedController) trip(now sim.Time, conn *tcp.Conn, reason string) {
	g.trips++
	g.tripped = true
	g.stallTicks, g.floorTicks = 0, 0
	if g.curProbation == 0 {
		g.curProbation = baseProbation
	} else {
		g.curProbation *= 2
		if g.curProbation > maxProbation {
			g.curProbation = maxProbation
		}
	}
	g.probation = g.curProbation

	// Hand the heuristic a workable window: SwitchCC sanitizes non-finite
	// congestion state, and restarting from the floor lets the fallback
	// slow-start back to the link's capacity instead of inheriting a
	// possibly pathological window.
	conn.SwitchCC(newFallback(), now)
	if w := conn.Cwnd; math.IsNaN(w) || w > g.ceiling(conn) || w < tcp.MinCwnd {
		conn.SetCwnd(tcp.MinCwnd)
	}
	conn.Kick(now)

	g.cfg.Metrics.Counter(MetricTrips).Inc()
	g.events = append(g.events, Event{
		AtUs: int64(now), Kind: KindTrip, Reason: reason, Cwnd: conn.Cwnd, Trip: g.trips,
	})
}

func (g *GuardedController) restore(now sim.Time, conn *tcp.Conn) {
	g.tripped = false
	g.restores++
	g.stallTicks, g.floorTicks = 0, 0
	if r, ok := g.inner.(resettable); ok {
		r.Reset()
	}
	if g.origCC != nil {
		conn.SwitchCC(g.origCC, now)
	}
	g.cfg.Metrics.Counter(MetricRestores).Inc()
	g.events = append(g.events, Event{
		AtUs: int64(now), Kind: KindRestore, Cwnd: conn.Cwnd, Trip: g.trips,
	})
}

// Tripped reports whether the connection is currently on the fallback.
func (g *GuardedController) Tripped() bool { return g.tripped }

// Trips returns how many times the guardian switched to the fallback.
func (g *GuardedController) Trips() int { return g.trips }

// Restores returns how many times the policy was re-admitted.
func (g *GuardedController) Restores() int { return g.restores }

// Clamps returns how many control decisions needed bounding.
func (g *GuardedController) Clamps() int64 { return g.clamps }

// Events returns a copy of the trip/restore log.
func (g *GuardedController) Events() []Event {
	return append([]Event(nil), g.events...)
}

// EmitEvents writes every trip/restore event to the JSONL emitter (one
// line per event, the telemetry wire format).
func (g *GuardedController) EmitEvents(j *telemetry.JSONL) error {
	for _, e := range g.events {
		if err := j.Emit(e); err != nil {
			return err
		}
	}
	return nil
}

func finiteVec(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

package promote

import "fmt"

// The demotion watchdog's fixed thresholds.
const (
	// tripFactor / fallbackFactor: the post-swap guard trip rate (resp.
	// engine fallback ratio) may grow to this multiple of the pre-swap
	// baseline before the watchdog votes to demote.
	tripFactor     = 2.0
	fallbackFactor = 2.0
	// rateFloor is the absolute per-decision rate below which a post-swap
	// rate is never actionable: with a clean baseline of zero, any factor
	// comparison would otherwise demote on a single stray trip.
	rateFloor = 0.01
	// minDecisions is how many post-swap decisions must accrue before a
	// verdict: judging a model on ten decisions is noise.
	minDecisions = 256
	// consecutive is how many successive bad observations demote: one
	// polluted polling window should not unseat a model.
	consecutive = 2
)

// WatchSample is a cumulative counter snapshot the watchdog compares:
// total decisions served, engine fallback decisions, and guard trips
// (read from the shared telemetry registry).
type WatchSample struct {
	Decisions int64 `json:"decisions"`
	Fallbacks int64 `json:"fallbacks"`
	Trips     int64 `json:"trips"`
}

// Watchdog monitors a freshly swapped-in model against the pre-swap
// baseline and votes to demote when post-swap guard trip rates or
// fallback ratios exceed it. It holds no locks and is driven by a single
// poller (Manager.Tick).
type Watchdog struct {
	armed     bool
	base      WatchSample // counters at swap time
	baseTrip  float64     // pre-swap trips per decision
	baseFall  float64     // pre-swap fallbacks per decision
	badStreak int
}

// NewWatchdog builds an unarmed watchdog.
func NewWatchdog() *Watchdog { return &Watchdog{} }

// Arm starts a post-swap observation window: base is the counter
// snapshot at swap time, whose all-time rates become the baseline the
// new model must not exceed.
func (w *Watchdog) Arm(base WatchSample) {
	w.armed = true
	w.base = base
	w.badStreak = 0
	w.baseTrip, w.baseFall = 0, 0
	if base.Decisions > 0 {
		w.baseTrip = float64(base.Trips) / float64(base.Decisions)
		w.baseFall = float64(base.Fallbacks) / float64(base.Decisions)
	}
}

// Disarm stops the observation window (a demotion or an operator ack).
func (w *Watchdog) Disarm() { w.armed = false; w.badStreak = 0 }

// Rebase moves an armed observation window's counter snapshot forward to
// cur while keeping the pre-swap baseline rates and clearing the bad
// streak. The manager calls it when an overload brownout ends: fallbacks
// and trips accumulated while the serving plane was shedding load are a
// capacity artifact and must never be charged to the model — but what
// counted as normal for this model before the swap must not be diluted
// by them either, which is why this is not a re-Arm.
func (w *Watchdog) Rebase(cur WatchSample) {
	if !w.armed {
		return
	}
	w.base = cur
	w.badStreak = 0
}

// Armed reports whether a post-swap window is being observed.
func (w *Watchdog) Armed() bool { return w.armed }

// Observe feeds the current counter snapshot. It returns demote=true
// when the post-swap window has conclusively degraded, with a
// human-readable reason.
func (w *Watchdog) Observe(cur WatchSample) (demote bool, reason string) {
	if !w.armed {
		return false, ""
	}
	d := cur.Decisions - w.base.Decisions
	if d < minDecisions {
		return false, ""
	}
	tripRate := float64(cur.Trips-w.base.Trips) / float64(d)
	fallRate := float64(cur.Fallbacks-w.base.Fallbacks) / float64(d)
	tripLimit := maxf(rateFloor, tripFactor*w.baseTrip)
	fallLimit := maxf(rateFloor, fallbackFactor*w.baseFall)

	var bad string
	switch {
	case tripRate > tripLimit:
		bad = fmt.Sprintf("guard trip rate %.4f/decision exceeds limit %.4f (pre-swap %.4f)",
			tripRate, tripLimit, w.baseTrip)
	case fallRate > fallLimit:
		bad = fmt.Sprintf("fallback ratio %.4f exceeds limit %.4f (pre-swap %.4f)",
			fallRate, fallLimit, w.baseFall)
	}
	if bad == "" {
		w.badStreak = 0
		return false, ""
	}
	w.badStreak++
	if w.badStreak < consecutive {
		return false, ""
	}
	w.Disarm()
	return true, bad
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

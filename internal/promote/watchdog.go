package promote

import "fmt"

// tripFactor / fallbackFactor: the post-swap guard trip rate (resp.
// engine fallback ratio) may grow to this multiple of the pre-swap
// baseline before the watchdog votes to demote.
const (
	tripFactor     = 2.0
	fallbackFactor = 2.0
)

// WatchdogConfig tunes the automatic demotion watchdog.
type WatchdogConfig struct {
	// RateFloor is the absolute per-decision rate below which a post-swap
	// rate is never actionable (default 0.01): with a clean baseline of
	// zero, any factor comparison would otherwise demote on a single
	// stray trip.
	RateFloor float64
	// MinDecisions is how many post-swap decisions must accrue before a
	// verdict (default 256): judging a model on ten decisions is noise.
	MinDecisions int64
	// Consecutive is how many successive bad observations demote
	// (default 2): one polluted polling window should not unseat a model.
	Consecutive int
}

func (c WatchdogConfig) fill() WatchdogConfig {
	if c.RateFloor == 0 {
		c.RateFloor = 0.01
	}
	if c.MinDecisions == 0 {
		c.MinDecisions = 256
	}
	if c.Consecutive == 0 {
		c.Consecutive = 2
	}
	return c
}

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
	cfg       WatchdogConfig
	armed     bool
	base      WatchSample // counters at swap time
	baseTrip  float64     // pre-swap trips per decision
	baseFall  float64     // pre-swap fallbacks per decision
	badStreak int
}

// NewWatchdog builds an unarmed watchdog.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{cfg: cfg.fill()}
}

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
	if d < w.cfg.MinDecisions {
		return false, ""
	}
	tripRate := float64(cur.Trips-w.base.Trips) / float64(d)
	fallRate := float64(cur.Fallbacks-w.base.Fallbacks) / float64(d)
	tripLimit := maxf(w.cfg.RateFloor, tripFactor*w.baseTrip)
	fallLimit := maxf(w.cfg.RateFloor, fallbackFactor*w.baseFall)

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
	if w.badStreak < w.cfg.Consecutive {
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

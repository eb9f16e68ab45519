package promote

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"sage/internal/guard"
	"sage/internal/serve"
	"sage/internal/telemetry"
)

// Lifecycle metric names.
const (
	MetricLifecycleSwaps     = "promote.swaps"
	MetricLifecycleDemotions = "promote.demotions"
	// MetricWatchdogMasked counts Tick evaluations skipped because the
	// serving plane was in overload brownout: fallback storms under
	// overload are a capacity problem, not a model regression, and must
	// not demote the incumbent.
	MetricWatchdogMasked = "promote.watchdog_masked"
)

// ManagerConfig wires the lifecycle manager to a live serving plane.
type ManagerConfig struct {
	Registry *Registry
	Engine   *serve.Engine
	// Metrics is the registry the engine and the fleet's guardians report
	// into; the watchdog reads serve.decisions / serve.fallbacks /
	// guard.trips from it and the manager adds the promote.* counters.
	Metrics *telemetry.Registry
	// Events, when non-nil, receives one JSONL record per swap/demotion.
	Events *telemetry.JSONL
	// OverloadActive reports whether the serving plane is in overload
	// brownout; while true, Tick masks the demotion watchdog (and on
	// recovery rebases its baseline past the brownout-polluted counters).
	// Defaults to Engine.OverloadActive.
	OverloadActive func() bool
}

// LifecycleEvent is the JSONL record of one swap or demotion.
type LifecycleEvent struct {
	Kind   string          `json:"event"` // "swap" or "demote"
	From   string          `json:"from,omitempty"`
	To     string          `json:"to"`
	Reason string          `json:"reason,omitempty"`
	Stats  serve.SwapStats `json:"stats"`
}

// Manager binds the registry to a live engine: it serves the control
// socket's swap/status verbs, arms the demotion watchdog after every
// swap, and reverts to the previous incumbent when the watchdog fires.
// It implements serve.Control. Safe for concurrent use.
type Manager struct {
	cfg   ManagerConfig
	watch *Watchdog

	mu        sync.Mutex
	servingID string // model id currently loaded in the engine
	prevID    string // what the engine served before the watched swap
	masked    bool   // watchdog suppressed by an ongoing overload brownout
}

// NewManager wires a manager. servingID names the model the engine was
// booted with (empty if unknown — the first SyncIncumbent fixes it).
func NewManager(cfg ManagerConfig, servingID string) (*Manager, error) {
	if cfg.Registry == nil || cfg.Engine == nil {
		return nil, errors.New("promote: manager needs a registry and an engine")
	}
	if cfg.OverloadActive == nil {
		cfg.OverloadActive = cfg.Engine.OverloadActive
	}
	return &Manager{cfg: cfg, watch: NewWatchdog(), servingID: servingID}, nil
}

// sample reads the watchdog's counter snapshot from the shared metrics
// registry.
func (m *Manager) sample() WatchSample {
	r := m.cfg.Metrics
	return WatchSample{
		Decisions: r.Counter(serve.MetricDecisions).Value(),
		Fallbacks: r.Counter(serve.MetricFallbacks).Value(),
		Trips:     r.Counter(guard.MetricTrips).Value(),
	}
}

// Serving returns the model id currently loaded in the engine.
func (m *Manager) Serving() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.servingID
}

// Swap implements serve.Control: hot-swap the engine to model id (empty
// id = the registry incumbent), arming the demotion watchdog against the
// pre-swap baseline. The report names the model and the session
// migration outcome.
func (m *Manager) Swap(id string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.swapLocked(id, true)
}

// SyncIncumbent loads the registry incumbent into the engine if it is
// not already serving (daemon boot, SIGHUP). Unlike an operator swap it
// does not arm the watchdog when nothing changed.
func (m *Manager) SyncIncumbent() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.cfg.Registry.Refresh(); err != nil {
		return "", err // journal corruption must not be mistaken for "no change"
	}
	info, ok := m.cfg.Registry.Incumbent()
	if !ok {
		return "", ErrNoIncumbent
	}
	if info.ID == m.servingID {
		return fmt.Sprintf("already serving incumbent %s", info.ID), nil
	}
	return m.swapLocked("", true)
}

func (m *Manager) swapLocked(id string, arm bool) (string, error) {
	target := id
	if target == "" {
		info, ok := m.cfg.Registry.Incumbent()
		if !ok {
			return "", ErrNoIncumbent
		}
		target = info.ID
	}
	model, err := m.cfg.Registry.Load(target)
	if err != nil {
		return "", err
	}
	pre := m.sample()
	stats, err := m.cfg.Engine.Swap(model.Policy, model.Mask)
	if err != nil {
		return "", err
	}
	from := m.servingID
	m.prevID = from
	m.servingID = target
	if arm {
		m.watch.Arm(pre)
	}
	m.cfg.Metrics.Counter(MetricLifecycleSwaps).Inc()
	m.cfg.Events.Emit(LifecycleEvent{Kind: "swap", From: from, To: target, Stats: stats})
	return fmt.Sprintf("swapped %s -> %s (%s)", orNone(from), target, stats), nil
}

// Tick drives the watchdog: the daemon calls it periodically after a
// swap. When the watchdog fires, the manager reverts the engine to the
// previous incumbent — and, when the degraded model had actually been
// promoted, demotes it in the registry in one journal transaction — then
// reports (true, reason).
func (m *Manager) Tick() (demoted bool, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()

	// Overload brownout masks the watchdog: under brownout the engine
	// deliberately floods serve.fallbacks-adjacent behavior (cheap-path
	// decisions, guard brownout trips) that looks exactly like a model
	// regression but is a capacity condition. Demoting a healthy incumbent
	// for it would thrash models at the worst possible moment.
	if m.cfg.OverloadActive != nil && m.cfg.OverloadActive() {
		if m.watch.Armed() {
			m.masked = true
			m.cfg.Metrics.Counter(MetricWatchdogMasked).Inc()
		}
		return false, ""
	}
	if m.masked {
		// Recovery: slide the armed watchdog's counter window past the
		// brownout so fallbacks and trips accumulated while shedding can
		// never be charged to the model (baseline rates are preserved).
		m.masked = false
		if m.watch.Armed() {
			m.watch.Rebase(m.sample())
			return false, ""
		}
	}

	fire, why := m.watch.Observe(m.sample())
	if !fire {
		return false, ""
	}

	// Decide what to fall back to. If the degraded model is the registry
	// incumbent, demote it (the journal transaction flips incumbency to
	// the previous promotion); if it was a forced swap of a non-incumbent
	// candidate, the registry is already right and only the engine needs
	// reverting.
	target := ""
	if info, ok := m.cfg.Registry.Incumbent(); ok && info.ID == m.servingID {
		prev, err := m.cfg.Registry.Demote(why)
		if err != nil {
			// No previous incumbent to fall back to: keep serving (there
			// is nothing better to serve) but surface the verdict.
			m.cfg.Events.Emit(LifecycleEvent{
				Kind: "demote", From: m.servingID, To: m.servingID,
				Reason: why + " (no previous incumbent: " + err.Error() + ")",
			})
			return true, why
		}
		target = prev
	}
	if _, err := m.swapLocked(target, false); err != nil {
		m.cfg.Events.Emit(LifecycleEvent{
			Kind: "demote", From: m.servingID, To: target,
			Reason: why + " (revert failed: " + err.Error() + ")",
		})
		return true, why
	}
	m.cfg.Metrics.Counter(MetricLifecycleDemotions).Inc()
	m.cfg.Events.Emit(LifecycleEvent{Kind: "demote", From: m.prevID, To: m.servingID, Reason: why})
	return true, why
}

// statusDoc is the JSON document Status returns.
type statusDoc struct {
	Serving   string      `json:"serving"`
	Incumbent string      `json:"incumbent,omitempty"`
	Watchdog  bool        `json:"watchdog_armed"`
	Masked    bool        `json:"watchdog_masked,omitempty"`
	Sessions  int         `json:"sessions"`
	Models    []ModelInfo `json:"models"`
}

// Status implements serve.Control.
func (m *Manager) Status() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	doc := statusDoc{
		Serving:  m.servingID,
		Watchdog: m.watch.Armed(),
		Masked:   m.masked,
		Sessions: m.cfg.Engine.Sessions(),
		Models:   m.cfg.Registry.List(),
	}
	if info, ok := m.cfg.Registry.Incumbent(); ok {
		doc.Incumbent = info.ID
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return `{"error":"status marshal failed"}`
	}
	return string(b)
}

func orNone(id string) string {
	if id == "" {
		return "(unknown)"
	}
	return id
}

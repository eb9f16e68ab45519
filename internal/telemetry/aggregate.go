package telemetry

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Fleet aggregates metric snapshots reported by remote agents — the
// coordinator-side view of a distributed campaign. Each agent ships its
// Registry.Snapshot() in heartbeats; the fleet keeps the latest snapshot
// per agent and exposes cross-fleet totals, so one scrape of the
// coordinator answers "how many rollouts/transitions has the whole fleet
// done" without touching any agent. It keeps no liveness clock: the
// coordinator's lease table expires silent agents. Nil-safe like the rest
// of the package: every method on a nil *Fleet is a no-op.
type Fleet struct {
	mu     sync.Mutex
	agents map[string]map[string]float64
}

// NewFleet returns an empty aggregator.
func NewFleet() *Fleet {
	return &Fleet{agents: make(map[string]map[string]float64)}
}

// Update replaces agent's latest snapshot. Counter-style metrics must be
// cumulative per agent (which is what Registry.Snapshot produces), so
// totals never double-count.
func (f *Fleet) Update(agent string, snap map[string]float64) {
	if f == nil || agent == "" {
		return
	}
	cp := make(map[string]float64, len(snap))
	for k, v := range snap {
		cp[k] = v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.agents[agent] = cp
}

// Totals sums every metric across agents, keyed by metric name. Gauges
// and histogram percentiles sum too — meaningless for some of them, but
// the caller knows which names are counters; the fleet does not invent a
// schema.
func (f *Fleet) Totals() map[string]float64 {
	if f == nil {
		return nil
	}
	out, _ := f.totals()
	return out
}

// totals sums every metric across agents and counts the agents, under one
// hold of the lock.
func (f *Fleet) totals() (map[string]float64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]float64{}
	for _, a := range f.agents {
		for k, v := range a {
			out[k] += v
		}
	}
	return out, len(f.agents)
}

// String renders a sorted name=total line, mirroring Registry.String.
func (f *Fleet) String() string {
	if f == nil {
		return ""
	}
	totals := f.Totals()
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%g", n, totals[n])
	}
	return b.String()
}

// PublishExpvar exposes the fleet totals (plus an agent count) under the
// given expvar name. Idempotent per name; panics on duplicate names like
// expvar itself, so call once per process.
func (f *Fleet) PublishExpvar(name string) {
	if f == nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		totals, agents := f.totals()
		v := map[string]any{"agents": agents}
		for k, t := range totals {
			v[k] = t
		}
		return v
	}))
}

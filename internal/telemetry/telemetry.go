// Package telemetry is the repository's observability layer: an
// allocation-conscious metrics core (counters, gauges, log-bucketed
// histograms), per-flow datapath tracing, progress/ETA reporting, and
// JSONL/CSV export for the paper-style figures.
//
// Every type in this package is nil-safe: calling any method on a nil
// *Registry, *Counter, *Gauge, *Histogram, *FlowTrace or *Progress is a
// no-op. Hot paths therefore carry a single nil pointer
// and pay only a predicted branch when telemetry is disabled — see
// BenchmarkNoopCounter / BenchmarkTelemetryDisabled for the guard.
//
// Wall-clock time never enters simulation-derived metrics: the FlowTrace
// is keyed by sim.Time, so traces are reproducible bit-for-bit like the
// simulations that produce them. Only Progress
// (operator-facing ETA output) reads the wall clock.
package telemetry

import (
	"expvar"
	"fmt"
	"sort"
	"sync"
)

// Registry is a named collection of metrics. The zero value is not
// usable; use NewRegistry. A nil *Registry is a valid "disabled"
// registry: every lookup returns a nil metric whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op counter) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a point-in-time flat view of every counter, gauge,
// and histogram summary, keyed by metric name (histograms expand to
// name.count / name.sum / name.min / name.max / name.p50 / name.p99).
// Keys are sorted for stable output.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+6*len(r.hists))
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, h := range r.hists {
		s := h.Summary()
		out[n+".count"] = float64(s.Count)
		out[n+".sum"] = s.Sum
		out[n+".min"] = s.Min
		out[n+".max"] = s.Max
		out[n+".p50"] = s.P50
		out[n+".p99"] = s.P99
	}
	return out
}

// Names returns the sorted metric names present in a snapshot — handy
// for deterministic CSV headers.
func Names(snap map[string]float64) []string {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PublishExpvar exposes the registry as an expvar.Var under name, so a
// -pprof debug server serves it at /debug/vars. Publishing the same
// name twice panics (expvar semantics); callers should publish once.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// String renders the snapshot compactly (for logs and tests).
func (r *Registry) String() string {
	if r == nil {
		return "telemetry: disabled"
	}
	snap := r.Snapshot()
	s := ""
	for _, n := range Names(snap) {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%g", n, snap[n])
	}
	return s
}

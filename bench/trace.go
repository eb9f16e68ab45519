package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. IDs are 1-based positions in the trace; Parent 0 marks a
// root. Spans of one request (a control tick, a cell, a step, a decision)
// share a TraceID.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	TraceID int64  `json:"trace_id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same driver code serves traced and untraced runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, traceID int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, StartNs: now, Parent: parent, TraceID: traceID})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// layerTime is what a trace says about one span name.
type layerTime struct {
	Count  int
	WallNs int64 // Σ (end − start)
	SelfNs int64 // Σ (span − the part of it its child spans cover)
}

// selfTimes computes per-name totals. A span's self time is its duration
// minus the union of its direct children's intervals clipped to it, so
// overlapping (concurrent) children are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.WallNs += s.EndNs - s.StartNs
		lt.SelfNs += s.EndNs - s.StartNs - covered
		out[s.Name] = lt
	}
	return out
}

// durations returns the duration of every span called name, in the unit
// given by perUnit nanoseconds (1e3 → µs, 1e6 → ms).
func durations(spans []span, name string, perUnit float64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/perUnit)
		}
	}
	return out
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

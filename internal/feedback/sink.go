package feedback

import (
	"encoding/json"
	"math"
	"sync"

	"sage/internal/serve"
	"sage/internal/telemetry"
)

// WindowRecord is the JSON payload of one spool record: one session's
// completed decision window. States are the raw (unmasked) GR vectors;
// Actions[i] is the cwnd ratio applied on States[i]; Fallback lists the
// indices of steps served by the safety no-op path (ratio 1, recurrent
// state untouched) — kept sparse because fallbacks are rare in health.
type WindowRecord struct {
	SID      uint64      `json:"sid"`
	Reason   string      `json:"reason"`
	States   [][]float64 `json:"s"`
	Actions  []float64   `json:"a"`
	Fallback []int       `json:"fb,omitempty"`
}

// recordFromWindow flattens a trace window into its spool payload.
func recordFromWindow(w serve.TraceWindow) WindowRecord {
	rec := WindowRecord{SID: w.SID, Reason: w.Reason}
	for i, st := range w.Steps {
		rec.States = append(rec.States, st.State)
		rec.Actions = append(rec.Actions, st.Ratio)
		if st.Fallback {
			rec.Fallback = append(rec.Fallback, i)
		}
	}
	return rec
}

// SinkConfig tunes a SpoolSink.
type SinkConfig struct {
	Dir     string
	Metrics *telemetry.Registry
}

// sinkQueue is how many windows a SpoolSink buffers between engine and
// disk.
const sinkQueue = 256

// SpoolSink adapts a Spool to serve.TraceSink: the engine's export call
// enqueues onto a bounded channel and returns immediately; a single
// writer goroutine marshals and appends. When the queue is full the
// window is dropped and counted (feedback.spool_dropped) — the serving
// plane never blocks on the feedback plane's disk.
type SpoolSink struct {
	spool   *Spool
	metrics *telemetry.Registry
	ch      chan serve.TraceWindow
	done    chan struct{}
	once    sync.Once
}

// NewSpoolSink opens the spool and starts the writer goroutine.
func NewSpoolSink(cfg SinkConfig) (*SpoolSink, error) {
	sp, err := OpenSpool(cfg.Dir, DefaultSegmentBytes)
	if err != nil {
		return nil, err
	}
	s := &SpoolSink{
		spool:   sp,
		metrics: cfg.Metrics,
		ch:      make(chan serve.TraceWindow, sinkQueue),
		done:    make(chan struct{}),
	}
	go s.run()
	return s, nil
}

// ExportWindow implements serve.TraceSink. Never blocks.
func (s *SpoolSink) ExportWindow(w serve.TraceWindow) {
	select {
	case s.ch <- w:
	default:
		s.metrics.Counter(MetricSpoolDropped).Inc()
	}
}

func (s *SpoolSink) run() {
	defer close(s.done)
	for w := range s.ch {
		if !finiteWindow(w) {
			// JSON cannot carry NaN/Inf and such a window holds no usable
			// observation anyway; the engine already filters per-step, so
			// this is a second line of defense, not a code path.
			s.metrics.Counter(MetricSpoolDropped).Inc()
			continue
		}
		payload, err := json.Marshal(recordFromWindow(w))
		if err != nil {
			s.metrics.Counter(MetricSpoolDropped).Inc()
			continue
		}
		if err := s.spool.Append(payload); err != nil {
			s.metrics.Counter(MetricSpoolDropped).Inc()
			continue
		}
		s.metrics.Counter(MetricSpooled).Inc()
		s.metrics.Counter(MetricSpoolBytes).Add(int64(len(payload)) + 10)
		s.metrics.Gauge(MetricSpoolSegments).Set(float64(s.spool.Segment()))
	}
}

// Close drains the queue to disk and closes the spool. Call after the
// engine has drained (serve.Engine.Close) so every flushed window lands.
func (s *SpoolSink) Close() error {
	s.once.Do(func() { close(s.ch) })
	<-s.done
	return s.spool.Close()
}

func finiteWindow(w serve.TraceWindow) bool {
	for _, st := range w.Steps {
		if math.IsNaN(st.Ratio) || math.IsInf(st.Ratio, 0) {
			return false
		}
		for _, x := range st.State {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
	}
	return true
}

package feedback

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"sage/internal/chaos"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/serve"
	"sage/internal/telemetry"
)

// teeSink keeps every window the engine exports and hands it on to the
// spool sink under test.
type teeSink struct {
	mu      sync.Mutex
	windows []serve.TraceWindow
	next    serve.TraceSink
}

func (s *teeSink) ExportWindow(w serve.TraceWindow) {
	s.mu.Lock()
	s.windows = append(s.windows, w)
	s.mu.Unlock()
	s.next.ExportWindow(w)
}

// Every window a serve.Engine exports through a SpoolSink lands in the
// spool once the engine and then the sink are closed, with its states,
// applied ratios and fallback indices intact; a window with a non-finite
// ratio is dropped and counted.
func TestSpoolSinkRoundTripsEngineWindows(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	reg := telemetry.NewRegistry()
	sink, err := NewSpoolSink(SinkConfig{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeSink{next: sink}
	newPolicy := func(seed int64) *nn.Policy {
		return nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 8, Hidden: 4, K: 2, Seed: seed})
	}
	eng := serve.NewEngine(serve.Config{Policy: newPolicy(1), Trace: tee, TraceWindowSteps: 4, Metrics: reg})
	eng.Start()

	rng := rand.New(rand.NewSource(5))
	decide := func(sid uint64, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			st := make([]float64, gr.StateDim)
			for j := range st {
				st[j] = rng.NormFloat64()
			}
			if _, _, err := eng.Decide(sid, 100, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Rotation (a 6-step session fills one 4-step window), close, and —
	// after a swap to a poisoned model degrades the sessions — windows of
	// fallback steps, exported when the engine drains.
	a, b := eng.NewSessionID(), eng.NewSessionID()
	decide(a, 6)
	decide(b, 3)
	eng.CloseSession(b)
	broken := newPolicy(2)
	chaos.PoisonPolicy(broken)
	if _, err := eng.Swap(broken, nil); err != nil {
		t.Fatal(err)
	}
	decide(a, 2)
	sink.ExportWindow(serve.TraceWindow{SID: 99, Reason: serve.TraceReasonClose, Steps: []serve.TraceStep{
		{State: make([]float64, gr.StateDim), Ratio: math.NaN()},
	}})
	eng.Close()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	windows := tee.windows
	var got []WindowRecord
	if _, err := TailSpool(dir, Cursor{}, func(_ Cursor, payload []byte) bool {
		var rec WindowRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(windows) < 4 || len(got) != len(windows) {
		t.Fatalf("spool holds %d records for %d exported windows", len(got), len(windows))
	}
	fallbacks := 0
	for i, w := range windows {
		rec := got[i]
		if rec.SID != w.SID || rec.Reason != w.Reason || len(rec.States) != len(w.Steps) || len(rec.Actions) != len(w.Steps) {
			t.Fatalf("record %d = sid %d %q, %d states, %d actions; window = sid %d %q, %d steps",
				i, rec.SID, rec.Reason, len(rec.States), len(rec.Actions), w.SID, w.Reason, len(w.Steps))
		}
		var wantFB []int
		for j, st := range w.Steps {
			if rec.Actions[j] != st.Ratio {
				t.Fatalf("record %d step %d ratio %v, want %v", i, j, rec.Actions[j], st.Ratio)
			}
			for k, x := range st.State {
				if rec.States[j][k] != x {
					t.Fatalf("record %d step %d state[%d] = %v, want %v", i, j, k, rec.States[j][k], x)
				}
			}
			if st.Fallback {
				wantFB = append(wantFB, j)
			}
		}
		if len(rec.Fallback) != len(wantFB) {
			t.Fatalf("record %d fallback indices %v, want %v", i, rec.Fallback, wantFB)
		}
		for j := range wantFB {
			if rec.Fallback[j] != wantFB[j] {
				t.Fatalf("record %d fallback indices %v, want %v", i, rec.Fallback, wantFB)
			}
		}
		fallbacks += len(wantFB)
	}
	if fallbacks == 0 {
		t.Fatal("no fallback step reached the spool: the degraded session's window is missing")
	}
	if n := reg.Counter(MetricSpooled).Value(); n != int64(len(windows)) {
		t.Fatalf("%s = %d, want %d", MetricSpooled, n, len(windows))
	}
	if n := reg.Counter(MetricSpoolDropped).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1 (the non-finite window)", MetricSpoolDropped, n)
	}
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sage/internal/sim"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d", got)
	}
	if r.Counter("pkts") != c {
		t.Fatal("counter not memoized")
	}
	g := r.Gauge("cwnd")
	g.Set(12.5)
	if got := g.Value(); got != 12.5 {
		t.Fatalf("gauge = %g", got)
	}
	snap := r.Snapshot()
	if snap["pkts"] != 4 || snap["cwnd"] != 12.5 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Histogram("h").Observe(float64(j % 17))
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d", got)
	}
	if got := r.Histogram("h").Summary().Count; got != 8000 {
		t.Fatalf("concurrent histogram count = %d", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 4, 8, 1000} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 1015 {
		t.Fatalf("sum = %g", s.Sum)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	// P50 lands in the bucket holding the 3rd value (4): upper edge 8.
	if s.P50 < 4 || s.P50 > 8 {
		t.Fatalf("p50 = %g", s.P50)
	}
	if s.P99 < 1000 || s.P99 > 2048 {
		t.Fatalf("p99 = %g", s.P99)
	}
	if m := h.Mean(); m != 203 {
		t.Fatalf("mean = %g", m)
	}
	// Degenerate observations must not panic or corrupt the digest.
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.NaN())
	if got := h.Summary().Count; got != 8 {
		t.Fatalf("count after degenerate = %d", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry not empty")
	}
	if r.String() != "telemetry: disabled" {
		t.Fatalf("nil registry string = %q", r.String())
	}
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge")
	}
	var h *Histogram
	h.Observe(1)
	if h.Summary().Count != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram")
	}
	var ft *FlowTrace
	ft.Record(FlowSample{})
	if ft.Len() != 0 || ft.Samples() != nil {
		t.Fatal("nil flow trace")
	}
	if err := ft.WriteJSONL(nil); err != nil {
		t.Fatal(err)
	}
	var j *JSONL
	if err := j.Emit(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var p *Progress
	p.Add(1)
	p.AddExtra(1)
	p.Finish()
}

func TestFlowTrace(t *testing.T) {
	tr := NewFlowTrace(100 * sim.Millisecond)
	for i := 0; i < 50; i++ {
		tr.Record(FlowSample{AtUs: int64(i) * 20_000, Flow: 1, Cwnd: float64(i)})
		tr.Record(FlowSample{AtUs: int64(i) * 20_000, Flow: 2, Cwnd: float64(i)})
	}
	// 50 ticks at 20 ms decimated to 100 ms → 10 per flow.
	if tr.Len() != 20 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	var jb bytes.Buffer
	if err := tr.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(jb.String(), "\n", 2)[0]
	var obj map[string]any
	if err := json.Unmarshal([]byte(first), &obj); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"t_us", "flow", "cwnd_pkts", "queue_pkts", "delivery_bps"} {
		if _, ok := obj[key]; !ok {
			t.Fatalf("jsonl missing %q: %v", key, obj)
		}
	}
	var cb bytes.Buffer
	if err := tr.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(cb.String()), "\n")); got != 21 {
		t.Fatalf("csv rows = %d", got)
	}
}

func TestJSONLEmit(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	type rec struct {
		Step int     `json:"step"`
		Loss float64 `json:"loss"`
	}
	if err := j.Emit(rec{1, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Emit(rec{2, 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var r rec
	if err := json.Unmarshal([]byte(lines[1]), &r); err != nil {
		t.Fatal(err)
	}
	if r.Step != 2 || r.Loss != 0.25 {
		t.Fatalf("record = %+v", r)
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "rollouts", 10, time.Nanosecond)
	for i := 0; i < 10; i++ {
		p.Add(1)
		p.AddExtra(100)
	}
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "rollouts: 10/10 (100%)") {
		t.Fatalf("missing final line: %q", out)
	}
	if !strings.Contains(out, "done in") {
		t.Fatalf("missing duration: %q", out)
	}
	if p.Done() != 10 || p.Extra() != 1000 {
		t.Fatalf("done=%d extra=%d", p.Done(), p.Extra())
	}
	// After Finish, output is silenced.
	n := buf.Len()
	p.Add(1)
	if buf.Len() != n {
		t.Fatal("progress printed after Finish")
	}
}

// ExtraLabel names the secondary unit in the rate line; without it the
// unit reads "extra", and on a nil meter it is a no-op that chains.
func TestProgressExtraLabel(t *testing.T) {
	for _, tc := range []struct{ label, want string }{
		{"transitions", " transitions/s"},
		{"", " extra/s"},
	} {
		var buf bytes.Buffer
		p := NewProgress(&buf, "rollouts", 2, time.Nanosecond)
		if tc.label != "" {
			if p.ExtraLabel(tc.label) != p {
				t.Fatal("ExtraLabel does not return its meter")
			}
		}
		p.AddExtra(50)
		p.Add(2)
		p.Finish()
		if out := buf.String(); !strings.Contains(out, tc.want) {
			t.Fatalf("label %q: no %q in %q", tc.label, tc.want, out)
		}
	}
	var nilp *Progress
	if nilp.ExtraLabel("transitions") != nil {
		t.Fatal("ExtraLabel on a nil meter returned a meter")
	}
}

func TestServeDebug(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The listener address isn't exposed by http.Server; bind a second
	// server to verify the error path instead and hit the mux directly.
	if _, err := ServeDebug("256.0.0.1:bad"); err == nil {
		t.Fatal("bad addr accepted")
	}
	req, _ := http.NewRequest("GET", "/debug/vars", nil)
	rec := &responseRecorder{header: http.Header{}}
	srv.Handler.ServeHTTP(rec, req)
	if rec.status != 0 && rec.status != http.StatusOK {
		t.Fatalf("vars status = %d", rec.status)
	}
	if !strings.Contains(rec.body.String(), "memstats") {
		t.Fatalf("expvar output missing memstats: %.80s", rec.body.String())
	}
}

type responseRecorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *responseRecorder) Header() http.Header         { return r.header }
func (r *responseRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *responseRecorder) WriteHeader(code int)        { r.status = code }

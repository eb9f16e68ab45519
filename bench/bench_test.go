package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the suite re-execute this test binary as the benchmark
// itself, the way it re-executes the real binary: one fresh process per run.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailQ float64
		tail  float64
	}{
		{50, 0, 0},           // p90 would leave 5 beyond
		{100, 0.90, 90},      // exactly 10 beyond p90, 5 beyond p95
		{200, 0.95, 190},     // 10 beyond p95, 2 beyond p99
		{999, 0.95, 950},     // p99 leaves 9 beyond
		{1000, 0.99, 990},    // 10 beyond p99, 1 beyond p99.9
		{10000, 0.999, 9990}, // 10 beyond p99.9
	} {
		got := summarize(seq(c.n))
		if got.N != c.n || got.TailQ != c.tailQ || got.Tail != c.tail || got.P50 != math.Ceil(float64(c.n)/2) {
			t.Errorf("n=%d: got %+v, want tail p%g=%g", c.n, got, 100*c.tailQ, c.tail)
		}
	}
	if got := summarize(nil); got.N != 0 || got.P50 != 0 {
		t.Errorf("empty: %+v", got)
	}
	// Nearest rank returns an observed sample, never an interpolation.
	if got := pct([]float64{1, 2, 3, 10}, 0.5); got != 2 {
		t.Errorf("pct = %g, want 2", got)
	}
}

func TestAggregate(t *testing.T) {
	vals := []float64{7, 3, 10, 1, 9, 4, 6, 2, 8, 5}
	lo := aggregate(vals, true)
	hi := aggregate(vals, false)
	if lo.Best != 1 || hi.Best != 10 || lo.Median != 5.5 || lo.Min != 1 || lo.Max != 10 || lo.N != 10 {
		t.Errorf("lower %+v higher %+v", lo, hi)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if want := (8.25 - 2.75) / 5.5; math.Abs(lo.Spread-want) > 1e-12 {
		t.Errorf("spread %g, want %g", lo.Spread, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: the clamped case.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %g, %g", q1, q3)
	}
	if one := aggregate([]float64{4}, true); one.Best != 4 || one.Median != 4 || one.Spread != 0 {
		t.Errorf("single value: %+v", one)
	}
}

func TestDigest(t *testing.T) {
	sum := func(f func(digest)) string {
		d := newDigest()
		f(d)
		return d.sum()
	}
	base := sum(func(d digest) { d.f64s([]float64{1, 2}); d.str("cubic") })
	if again := sum(func(d digest) { d.f64s([]float64{1, 2}); d.str("cubic") }); again != base {
		t.Errorf("equal inputs hash differently")
	}
	for name, other := range map[string]string{
		"reordered": sum(func(d digest) { d.f64s([]float64{2, 1}); d.str("cubic") }),
		"regrouped": sum(func(d digest) { d.f64s([]float64{1}); d.f64s([]float64{2}); d.str("cubic") }),
	} {
		if other == base {
			t.Errorf("%s input hashes the same", name)
		}
	}
	// The comparison is bitwise: 0 and -0 are different outputs.
	if sum(func(d digest) { d.f64(0) }) == sum(func(d digest) { d.f64(math.Copysign(0, -1)) }) {
		t.Errorf("0 and -0 hash the same")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNs: 0, EndNs: 100},
		{ID: 2, Name: "child", StartNs: 10, EndNs: 40, Parent: 1},
		{ID: 3, Name: "child", StartNs: 30, EndNs: 60, Parent: 1},  // overlaps span 2
		{ID: 4, Name: "child", StartNs: 90, EndNs: 120, Parent: 1}, // runs past the parent
		{ID: 5, Name: "grandchild", StartNs: 15, EndNs: 20, Parent: 2},
	}
	st := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 of its 100.
	if got := st["parent"]; got.SelfNs != 40 || got.WallNs != 100 || got.Count != 1 {
		t.Errorf("parent %+v", got)
	}
	// Only span 2 has a child of its own.
	if got := st["child"]; got.SelfNs != 30+30+30-5 || got.Count != 3 {
		t.Errorf("child %+v", got)
	}
	if got := durations(spans, "child", 10); len(got) != 3 || got[0] != 3 {
		t.Errorf("durations %v", got)
	}
}

func TestCompare(t *testing.T) {
	sp := &spec{EndToEnd: []metricDef{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	mk := func(ops, lat float64, failed int64) *results {
		return &results{Workloads: map[string]*workloadResult{"w": {
			Correct: true, Failed: failed,
			EndToEnd: map[string]agg{"ops_per_s": {Median: ops}, "lat_p50_us": {Median: lat}},
		}}}
	}
	var out bytes.Buffer
	if code := compareResults(sp, mk(100, 10, 0), mk(108, 10.9, 0), &out); code != 0 || strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(sp, mk(100, 10, 0), mk(89, 10, 0), &out); code != 1 || strings.Count(out.String(), "DISAGREE") != 1 {
		t.Errorf("throughput down 11%%: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(sp, mk(100, 10, 0), mk(100, 10, 3), &out); code != 1 {
		t.Errorf("failed operations must disagree: exit %d\n%s", code, out.String())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpec holds BENCHMARK.json to the limits its consumers enforce.
func TestSpec(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) < 2 || len(sp.Workloads) > 8 || len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer", len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer))
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: not implemented, or its why is not one line of ≤ 200 characters", w.Name)
		}
	}
	for _, d := range sp.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end %+v", d)
		}
	}
	for _, d := range sp.PerLayer {
		name(d.Name)
		if d.Bound != 0 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %+v", d)
		}
	}
	if !seen["setup_s"] || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("setup_s missing or run_seconds %d out of range", sp.RunSeconds)
	}
}

// TestSmoke runs the whole suite at about a twentieth of full size: every
// workload, traced and untraced, every output check on. A metric the
// program measures but BENCHMARK.json does not define, or the reverse for
// an end-to-end metric, fails the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sage-serve and runs eight child processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-root", root, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	sp, _ := loadSpec(root)
	for _, w := range sp.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil || !wr.Correct || wr.Failed != 0 || wr.Ops == 0 {
			t.Errorf("%s: %+v", w.Name, wr)
			continue
		}
		for _, d := range sp.EndToEnd {
			if a := wr.EndToEnd[d.Name]; a.N != 1 || !(a.Median > 0) {
				t.Errorf("%s %s: %+v", w.Name, d.Name, a)
			}
		}
		if wr.PerLayer["trace.overhead_frac"] == 0 {
			t.Errorf("%s: traced run reported no overhead figure", w.Name)
		}
	}
	// The four sim_fleet span shares and the driver's own share are a
	// partition of the traced run.
	pl := res.Workloads["sim_fleet"].PerLayer
	if sum := pl["sim.run_until_share"] + pl["gr.tick_share"] + pl["serve.enqueue_share"] + pl["serve.flush_share"] + pl["rollout.driver_self_share"]; math.Abs(sum-1) > 0.01 {
		t.Errorf("sim_fleet shares sum to %g", sum)
	}
	if info, err := os.Stat(filepath.Join(out, "trace.jsonl")); err != nil || info.Size() == 0 {
		t.Errorf("trace.jsonl: %v", err)
	}
}

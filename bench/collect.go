package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/rl"
	"sage/internal/sim"
)

// grid is the collect_grid input: every pool scheme through Set I ∪ Set II
// at the tiny grid level — one or two flows per simulation at 24–96 Mb/s,
// the opposite end of the datapath's range from sim_fleet.
type grid struct {
	schemes   []string
	scenarios []netem.Scenario
}

// newGrid derives the scenarios from the seed. The stock grids use their
// seed only to draw random loss and jitter, which they leave off, so every
// scenario is given up to 0.5 ms of per-packet jitter: with it two seeds
// are two different packet timings, at the same amount of work. setII = 0
// leaves Set II out.
func newGrid(seed int64, schemes []string, setI, setII sim.Time) grid {
	scs := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: setI, Seed: seed})
	if setII > 0 {
		scs = append(scs, netem.SetII(netem.SetIIOptions{Level: netem.GridTiny, Duration: setII, Seed: seed})...)
	}
	for i := range scs {
		scs[i].Jitter = 500 * sim.Microsecond
	}
	return grid{schemes: schemes, scenarios: scs}
}

func (g grid) cells() int { return len(g.schemes) * len(g.scenarios) }

func poolHash(p *collector.Pool) string {
	d := newDigest()
	for _, tr := range p.Trajs {
		d.str(tr.Scheme)
		d.str(tr.Env)
		for _, s := range tr.Steps {
			d.f64s(s.State)
			d.f64(s.Action)
			d.f64(s.Reward)
		}
	}
	return d.sum()
}

type gridResult struct {
	rep      // ops = transitions, latUs = cell times
	hash     string
	problems []string
}

// run is the end-to-end path: collector.Collect with two workers, then
// Pool.Save. Collect's per-attempt and per-cell hooks give each cell's
// start and end without touching the collector.
func (g grid) run(path string) (gridResult, *collector.Pool) {
	var (
		mu     sync.Mutex
		starts = make(map[collector.CellKey]time.Time, g.cells())
		cellUs = make([]float64, 0, g.cells())
	)
	opt := collector.Options{
		Parallel: 2,
		FaultHook: func(scheme, env string) {
			t := time.Now()
			mu.Lock()
			starts[collector.CellKey{Scheme: scheme, Env: env}] = t
			mu.Unlock()
		},
		OnCell: func(scheme, env string, err error) {
			t := time.Now()
			mu.Lock()
			cellUs = append(cellUs, float64(t.Sub(starts[collector.CellKey{Scheme: scheme, Env: env}]).Nanoseconds())/1e3)
			mu.Unlock()
		},
	}
	var (
		out  gridResult
		pool *collector.Pool
		err  error
	)
	out.wall, out.mallocs, out.bytes = timed(func() {
		pool, err = collector.Collect(context.Background(), g.schemes, g.scenarios, opt)
		if err == nil {
			err = pool.Save(path)
		}
	})
	if err != nil {
		out.problems = append(out.problems, "collect_grid: "+err.Error())
		return out, nil
	}
	out.latUs = cellUs
	out.ops = int64(pool.Transitions())
	out.hash = poolHash(pool)
	if len(pool.Trajs) != g.cells() || len(pool.Failed) != 0 {
		out.problems = append(out.problems, fmt.Sprintf("collect_grid: %d trajectories and %d failed cells, want %d and 0", len(pool.Trajs), len(pool.Failed), g.cells()))
	}
	return out, pool
}

// checkRoundTrip reloads a saved pool and compares it with what was saved.
func checkRoundTrip(path, wantHash string) []string {
	back, err := collector.Load(path)
	if err != nil {
		return []string{"collect_grid: reload: " + err.Error()}
	}
	if h := poolHash(back); h != wantHash {
		return []string{fmt.Sprintf("collect_grid: reloaded pool hashes to %s, saved %s", h, wantHash)}
	}
	return nil
}

// runTraced collects the same grid from the benchmark's own two-worker pool
// over collector.CollectCell, so each cell is a span, then times the pool's
// trip through safeio and into a training dataset.
func (g grid) runTraced(tr *tracer, dir string) (gridResult, map[string]float64) {
	root := tr.begin("collector.collect", 0, 0)
	t0 := time.Now()
	type job struct{ s, e int }
	jobs := make(chan job)
	trajs := make([]collector.Trajectory, g.cells())
	errs := make([]error, g.cells())
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				idx := j.s*len(g.scenarios) + j.e
				s := tr.begin("collector.cell", root, int64(idx+1))
				trajs[idx], errs[idx] = collector.CollectCell(context.Background(), g.schemes[j.s], g.scenarios[j.e], collector.Options{})
				tr.end(s)
			}
		}()
	}
	for s := range g.schemes {
		for e := range g.scenarios {
			jobs <- job{s, e}
		}
	}
	close(jobs)
	wg.Wait()
	collectWall := time.Since(t0)
	pool := &collector.Pool{GR: gr.Config{}.Fill(), Trajs: trajs}

	var out gridResult
	for _, err := range errs {
		if err != nil {
			out.problems = append(out.problems, "collect_grid (traced): "+err.Error())
		}
	}
	path := filepath.Join(dir, "traced-pool.gob.gz")
	s := tr.begin("safeio.pool_save", root, 0)
	if err := pool.Save(path); err != nil {
		out.problems = append(out.problems, "collect_grid (traced): "+err.Error())
	}
	tr.end(s)
	tr.end(root)
	out.wall = time.Since(t0)
	out.ops = int64(pool.Transitions())
	out.hash = poolHash(pool)

	layer := map[string]float64{}
	if st, err := os.Stat(path); err == nil {
		layer["safeio.pool_bytes"] = float64(st.Size())
	}
	s = tr.begin("safeio.pool_load", 0, 0)
	back, err := collector.Load(path)
	tr.end(s)
	if err != nil {
		out.problems = append(out.problems, "collect_grid (traced): "+err.Error())
		return out, layer
	}
	s = tr.begin("rl.build_dataset", 0, 0)
	ds := rl.BuildDataset(back, gr.MaskFull())
	tr.end(s)
	if int64(ds.Transitions()) != out.ops {
		out.problems = append(out.problems, fmt.Sprintf("collect_grid (traced): dataset has %d transitions, pool %d", ds.Transitions(), out.ops))
	}
	st := selfTimes(tr.spans)
	layer["collector.worker_util"] = float64(st["collector.cell"].WallNs) / (2 * float64(collectWall.Nanoseconds()))
	return out, layer
}

func (e *env) gridSchemes() []string {
	if e.sz.gridSchemes != nil {
		return e.sz.gridSchemes
	}
	return cc.PoolNames()
}

// gridSetUp is everything collect_grid does before its first timed cell:
// generate and validate the scenarios, and take every scheme through the
// first two of them once.
func (e *env) gridSetUp() (grid, error) {
	g := newGrid(e.seed, e.gridSchemes(), e.sz.gridSetI, e.sz.gridSetII)
	if err := netem.ValidateAll(g.scenarios); err != nil {
		return g, err
	}
	_, err := collector.Collect(context.Background(), g.schemes, g.scenarios[:2], collector.Options{Parallel: 2})
	return g, err
}

func runCollectGrid(e *env) (*outcome, error) {
	o := newOutcome()
	var (
		g      grid
		setupS []float64
	)
	for i := 0; i < e.sz.setups; i++ {
		t0 := time.Now()
		var err error
		if g, err = e.gridSetUp(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	path := filepath.Join(e.tmp, "pool.gob.gz")
	if e.trace {
		return o, e.traceCollectGrid(o, g, path)
	}
	var reps []rep
	for t0 := time.Now(); len(reps) == 0 || time.Since(t0).Seconds() < e.seconds; {
		r, _ := g.run(path)
		o.attempted += r.ops
		o.problems = append(o.problems, r.problems...)
		o.sameHash("collect_grid pool", r.hash)
		reps = append(reps, r.rep)
	}
	if len(o.problems) == 0 {
		o.problems = append(o.problems, checkRoundTrip(path, o.hashes["collect_grid pool"])...)
	}
	o.endToEnd(e, setupS, reps)
	return o, nil
}

func (e *env) traceCollectGrid(o *outcome, g grid, path string) error {
	plain, _ := g.run(path)
	tr := newTracer()
	traced, layer := g.runTraced(tr, e.tmp)
	o.spans = tr.spans
	o.attempted = plain.ops + traced.ops
	o.problems = append(append(o.problems, plain.problems...), traced.problems...)
	// Cells collected one by one must add up to collector.Collect's pool.
	o.sameHash("collect_grid pool", plain.hash)
	o.sameHash("collect_grid pool", traced.hash)
	st := selfTimes(o.spans)
	cells := summarize(durations(o.spans, "collector.cell", 1e6))
	fmt.Fprintf(e.log, "collect_grid cell ms: %v\n", cells)
	m := o.metrics
	for k, v := range layer {
		m[k] = v
	}
	m["collector.cells"] = float64(cells.N)
	m["collector.cell_ms_p50"] = cells.P50
	m["collector.cell_ms_max"] = cells.Max
	m["collector.transitions_per_s"] = float64(plain.ops) / plain.wall.Seconds()
	m["collector.peak_rss_mb"] = peakRSSMB()
	m["safeio.pool_save_s"] = float64(st["safeio.pool_save"].WallNs) / 1e9
	m["safeio.pool_load_s"] = float64(st["safeio.pool_load"].WallNs) / 1e9
	m["rl.build_dataset_s"] = float64(st["rl.build_dataset"].WallNs) / 1e9
	m["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1

	m["tcp.flow_ns_per_pkt"], m["tcp.allocs_per_pkt"] = probeFlow("pure", e.sz.probeFlowDur)
	m["cc.cubic_ns_per_pkt"], _ = probeFlow("cubic", e.sz.probeFlowDur)
	var err error
	m["safeio.append_us_p50"], err = probeAppend(e.tmp, e.log)
	return err
}

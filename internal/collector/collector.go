// Package collector implements the paper's Policy Collector (Section 4.1):
// it rolls every congestion-control scheme through every environment of
// Set I and Set II, records the GR unit's {state, action, reward}
// trajectories, and assembles the pool of policies the offline learner
// trains on. Collection happens once; afterwards the environments are
// "unplugged" and training touches only the pool.
package collector

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/safeio"
	"sage/internal/telemetry"
)

// Trajectory is one (scheme, environment) rollout in the pool.
type Trajectory struct {
	Scheme    string
	Env       string
	MultiFlow bool
	Steps     []gr.Step
	// Score is the trajectory's mean reward: the collector keeps it so pool
	// filters (BC-top, winners-only, Sage-Top) don't have to rescan steps.
	Score float64
}

// FailedCell records a (scheme, env) rollout that failed permanently
// (panicked twice): the campaign completes without it and reports it.
type FailedCell struct {
	Scheme, Env string
	Err         string
}

// CellKey identifies one (scheme, env) cell of the collection matrix.
type CellKey struct{ Scheme, Env string }

// Pool is the pool of policies.
type Pool struct {
	GR    gr.Config
	Trajs []Trajectory
	// Failed lists cells whose rollouts failed permanently during
	// collection; it rides along in the saved pool so a resumed or merged
	// campaign still reports what is missing.
	Failed []FailedCell
}

// Transitions counts the (s,a,r,s') tuples in the pool.
func (p *Pool) Transitions() int {
	n := 0
	for _, tr := range p.Trajs {
		if len(tr.Steps) > 1 {
			n += len(tr.Steps) - 1
		}
	}
	return n
}

// Schemes returns the distinct scheme names present, in first-seen order.
func (p *Pool) Schemes() []string {
	seen := map[string]bool{}
	var out []string
	for _, tr := range p.Trajs {
		if !seen[tr.Scheme] {
			seen[tr.Scheme] = true
			out = append(out, tr.Scheme)
		}
	}
	return out
}

// Options tunes pool collection.
type Options struct {
	GR       gr.Config
	Parallel int // worker goroutines (default NumCPU)
	// Progress, when non-nil, is advanced by one per completed rollout
	// (with transitions as the extra unit), giving sage-collect its
	// live done/total, transitions/sec, and ETA line. Nil costs nothing.
	Progress *telemetry.Progress
	// Skip, when non-nil, is consulted per cell before dispatch; resumed
	// campaigns return true for cells already present in the partial pool.
	Skip func(scheme, env string) bool
	// OnCell, when non-nil, is called (from worker goroutines) as each
	// cell completes or fails permanently — the resume-manifest hook.
	// Cancelled cells are not reported; they are simply not done.
	OnCell func(scheme, env string, err error)
	// FaultHook, when non-nil, runs inside the worker before each rollout
	// attempt. It exists for the chaos harness to inject worker panics;
	// production code leaves it nil.
	FaultHook func(scheme, env string)
}

// panicError marks an error recovered from a worker panic (these are
// retried once; genuine errors are not).
type panicError struct{ msg string }

func (p *panicError) Error() string { return p.msg }

// Collect builds a pool by running each scheme through each scenario.
// Rollouts are independent and run in parallel. Scheme names are
// validated up front, so a typo fails in microseconds with the known list
// instead of panicking hours into a campaign. A worker that panics is
// recovered and its cell retried once; a second panic records the cell in
// Pool.Failed and the campaign continues. Cancelling ctx drains the
// workers and returns the completed cells with ctx's error, so callers
// can save a partial pool and resume later.
func Collect(ctx context.Context, schemes []string, scenarios []netem.Scenario, opt Options) (*Pool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cc.Validate(schemes...); err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	// Scenarios are validated up front too: a nonsensical environment
	// (zero duration, negative loss, TestStart past the end) would
	// otherwise silently collect garbage trajectories or hang a worker.
	if err := netem.ValidateAll(scenarios); err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	opt.GR = opt.GR.Fill()
	if opt.Parallel == 0 {
		opt.Parallel = runtime.NumCPU()
	}
	type job struct{ scheme, env int }
	jobs := make(chan job)
	trajs := make([]Trajectory, len(schemes)*len(scenarios))
	done := make([]bool, len(trajs))
	var mu sync.Mutex // guards failed
	var failed []FailedCell
	var wg sync.WaitGroup
	for w := 0; w < opt.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain remaining jobs without running them
				}
				scheme, sc := schemes[j.scheme], scenarios[j.env]
				tr, err := runCell(ctx, scheme, sc, opt)
				var pe *panicError
				if errors.As(err, &pe) && ctx.Err() == nil {
					tr, err = runCell(ctx, scheme, sc, opt) // one retry
				}
				switch {
				case err == nil:
					idx := j.scheme*len(scenarios) + j.env
					trajs[idx] = tr
					done[idx] = true
					if n := len(tr.Steps); n > 1 {
						opt.Progress.AddExtra(int64(n - 1))
					}
					opt.Progress.Add(1)
					if opt.OnCell != nil {
						opt.OnCell(scheme, sc.Name, nil)
					}
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
					// Cancelled mid-rollout: neither done nor failed.
				default:
					mu.Lock()
					failed = append(failed, FailedCell{Scheme: scheme, Env: sc.Name, Err: err.Error()})
					mu.Unlock()
					opt.Progress.Add(1)
					if opt.OnCell != nil {
						opt.OnCell(scheme, sc.Name, err)
					}
				}
			}
		}()
	}
dispatch:
	for s := range schemes {
		for e := range scenarios {
			if opt.Skip != nil && opt.Skip(schemes[s], scenarios[e].Name) {
				opt.Progress.Add(1)
				continue
			}
			select {
			case jobs <- job{s, e}:
			case <-ctx.Done():
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()
	p := &Pool{GR: opt.GR}
	for i, ok := range done {
		if ok {
			p.Trajs = append(p.Trajs, trajs[i])
		}
	}
	sort.Slice(failed, func(i, j int) bool {
		if failed[i].Scheme != failed[j].Scheme {
			return failed[i].Scheme < failed[j].Scheme
		}
		return failed[i].Env < failed[j].Env
	})
	p.Failed = failed
	return p, ctx.Err()
}

// CollectCell runs exactly one (scheme, env) rollout with the same
// panic-recovery-and-retry semantics as a Collect worker — the unit of
// work a distributed collection agent (internal/dist) executes per lease.
// The trajectory is a pure function of (scheme, scenario, GR config), so
// a cell collected on a remote agent is identical to the same cell
// collected in-process.
func CollectCell(ctx context.Context, scheme string, sc netem.Scenario, opt Options) (Trajectory, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cc.Validate(scheme); err != nil {
		return Trajectory{}, fmt.Errorf("collector: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Trajectory{}, fmt.Errorf("collector: %w", err)
	}
	opt.GR = opt.GR.Fill()
	tr, err := runCell(ctx, scheme, sc, opt)
	var pe *panicError
	if errors.As(err, &pe) && ctx.Err() == nil {
		tr, err = runCell(ctx, scheme, sc, opt) // one retry, like Collect
	}
	return tr, err
}

// runCell runs one (scheme, env) rollout, converting a worker panic into
// an error so one poisoned cell cannot kill the whole campaign.
func runCell(ctx context.Context, scheme string, sc netem.Scenario, opt Options) (tr Trajectory, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{msg: fmt.Sprintf("worker panic: %v", r)}
		}
	}()
	if opt.FaultHook != nil {
		opt.FaultHook(scheme, sc.Name)
	}
	impl, err := cc.New(scheme)
	if err != nil {
		return tr, err
	}
	res := rollout.Run(sc, impl, rollout.Options{
		GR:           opt.GR,
		CollectSteps: true,
		Ctx:          ctx,
	})
	if res.Interrupted {
		return tr, context.Canceled
	}
	return Trajectory{
		Scheme:    scheme,
		Env:       sc.Name,
		MultiFlow: sc.CubicFlows > 0,
		Steps:     res.Steps,
		Score:     gr.MeanReward(res.Steps),
	}, nil
}

// Merge combines pools collected separately (e.g. Set I and Set II).
// Every pool must have been collected under the same GR configuration —
// trajectories sampled at different intervals or window sizes are not
// comparable training data, so a mismatch is an error rather than a
// silently mixed pool. Configs are compared after Fill, so an unset
// field and its explicit default are the same config. For merging shard
// files off disk, use MergeShardFiles, which streams one shard at a time
// instead of requiring every pool in memory at once.
func Merge(pools ...*Pool) (*Pool, error) {
	m := newMerger()
	for i, p := range pools {
		if err := m.add(fmt.Sprintf("pool %d", i), p); err != nil {
			return nil, err
		}
	}
	return m.result(), nil
}

// merger accumulates pools one at a time, deduplicating by cell so a
// shard re-collected by a revived agent cannot double a trajectory, and
// dropping Failed entries for cells another shard did complete.
type merger struct {
	out       *Pool
	seen      map[CellKey]bool
	failedSet map[CellKey]bool
	first     bool
	want      gr.Config
}

func newMerger() *merger {
	return &merger{out: &Pool{}, seen: map[CellKey]bool{}, failedSet: map[CellKey]bool{}, first: true}
}

func (m *merger) add(name string, p *Pool) error {
	if m.first {
		m.out.GR = p.GR
		m.want = p.GR.Fill()
		m.first = false
	} else if got := p.GR.Fill(); got != m.want {
		return fmt.Errorf("collector: merge: %s GR config %+v differs from first pool %+v", name, got, m.want)
	}
	for _, tr := range p.Trajs {
		key := CellKey{tr.Scheme, tr.Env}
		if m.seen[key] {
			continue // duplicate cell (revived agent, overlapping shards): first wins
		}
		m.seen[key] = true
		m.out.Trajs = append(m.out.Trajs, tr)
	}
	for _, f := range p.Failed {
		key := CellKey{f.Scheme, f.Env}
		if m.failedSet[key] {
			continue
		}
		m.failedSet[key] = true
		m.out.Failed = append(m.out.Failed, f)
	}
	return nil
}

// result finalizes the merge: a cell that failed on one agent but was
// completed by another (lease reassignment) is not a failure of the
// campaign, so its Failed entry is dropped.
func (m *merger) result() *Pool {
	if m.first {
		return &Pool{}
	}
	kept := m.out.Failed[:0]
	for _, f := range m.out.Failed {
		if !m.seen[CellKey{f.Scheme, f.Env}] {
			kept = append(kept, f)
		}
	}
	m.out.Failed = kept
	return m.out
}

// MergeShardFiles streams the shard pools at paths into one deduplicated
// pool. Shards are loaded, appended, and released one at a time, so peak
// memory is one shard plus the accumulating result — not the sum of all
// shards, which at paper scale (>60M transitions across hundreds of
// shards) would not fit. A shard that fails checksum verification (or
// any load/config check) is identified by path in the returned error, so
// an operator can delete or re-collect exactly the bad shard.
func MergeShardFiles(paths ...string) (*Pool, error) {
	m := newMerger()
	for _, path := range paths {
		p, err := Load(path)
		if err != nil {
			return nil, fmt.Errorf("collector: merge: shard %s: %w", path, err)
		}
		if err := m.add("shard "+path, p); err != nil {
			return nil, err
		}
	}
	return m.result(), nil
}

// SortByCell orders trajectories canonically by (scheme, env). Resumed
// campaigns merge a partial pool with freshly collected cells; sorting
// before the final save makes the result bitwise-identical to an
// uninterrupted run regardless of where the interruption fell.
func (p *Pool) SortByCell() {
	sort.Slice(p.Trajs, func(i, j int) bool {
		if p.Trajs[i].Scheme != p.Trajs[j].Scheme {
			return p.Trajs[i].Scheme < p.Trajs[j].Scheme
		}
		return p.Trajs[i].Env < p.Trajs[j].Env
	})
	sort.Slice(p.Failed, func(i, j int) bool {
		if p.Failed[i].Scheme != p.Failed[j].Scheme {
			return p.Failed[i].Scheme < p.Failed[j].Scheme
		}
		return p.Failed[i].Env < p.Failed[j].Env
	})
}

// Cells returns the set of (scheme, env) cells present in the pool — the
// resume path intersects it with the manifest to decide what to skip.
func (p *Pool) Cells() map[CellKey]bool {
	out := make(map[CellKey]bool, len(p.Trajs))
	for _, tr := range p.Trajs {
		out[CellKey{tr.Scheme, tr.Env}] = true
	}
	return out
}

// FilterSchemes keeps only trajectories from the named schemes (the
// Sage-Top / Sage-Top4 pools of Fig. 15 and the BC-top variants of Fig. 9).
func (p *Pool) FilterSchemes(names ...string) *Pool {
	keep := map[string]bool{}
	for _, n := range names {
		keep[n] = true
	}
	out := &Pool{GR: p.GR}
	for _, tr := range p.Trajs {
		if keep[tr.Scheme] {
			out.Trajs = append(out.Trajs, tr)
		}
	}
	return out
}

// WinnersPerEnv keeps, for each environment, only the trajectory with the
// best score (the BCv2 pool: "only the winner policies of each particular
// scenario").
func (p *Pool) WinnersPerEnv() *Pool {
	best := map[string]int{}
	for i, tr := range p.Trajs {
		j, ok := best[tr.Env]
		if !ok || tr.Score > p.Trajs[j].Score {
			best[tr.Env] = i
		}
	}
	out := &Pool{GR: p.GR}
	for _, i := range best {
		out.Trajs = append(out.Trajs, p.Trajs[i])
	}
	return out
}

// TopSchemes ranks schemes by their mean score over single-flow and
// multi-flow trajectories separately and returns the union of the top k of
// each ranking (the construction behind Sage-Top and Sage-Top4).
func (p *Pool) TopSchemes(k int) []string {
	type agg struct {
		sum float64
		n   int
	}
	single := map[string]*agg{}
	multi := map[string]*agg{}
	for _, tr := range p.Trajs {
		m := single
		if tr.MultiFlow {
			m = multi
		}
		a := m[tr.Scheme]
		if a == nil {
			a = &agg{}
			m[tr.Scheme] = a
		}
		a.sum += tr.Score
		a.n++
	}
	top := func(m map[string]*agg) []string {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				if m[names[j]].sum/float64(m[names[j]].n) > m[names[i]].sum/float64(m[names[i]].n) {
					names[i], names[j] = names[j], names[i]
				}
			}
		}
		if len(names) > k {
			names = names[:k]
		}
		return names
	}
	seen := map[string]bool{}
	var out []string
	for _, n := range append(top(single), top(multi)...) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Save writes the pool in the pool format (EncodePool) inside safeio's
// atomic, checksummed container: an interrupted save leaves any previous
// pool at path intact.
func (p *Pool) Save(path string) error {
	if err := safeio.WriteFile(path, func(w io.Writer) error { return EncodePool(w, p) }); err != nil {
		return fmt.Errorf("collector: save: %w", err)
	}
	return nil
}

// Load reads a pool written by Save, or a gob pool from before the pool
// format, detecting truncation and corruption before decoding.
func Load(path string) (*Pool, error) {
	payload, err := safeio.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("collector: load: %w", err)
	}
	p, err := DecodePool(payload)
	if err != nil {
		return nil, fmt.Errorf("collector: load: %s: %w", path, err)
	}
	return p, nil
}

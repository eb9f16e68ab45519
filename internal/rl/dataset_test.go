package rl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sage/internal/alloctest"
	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/nn"
)

func stepTraj(scheme string, n int, u float64) collector.Trajectory {
	tr := collector.Trajectory{Scheme: scheme, Env: "env"}
	for i := 0; i < n; i++ {
		tr.Steps = append(tr.Steps, gr.Step{
			State:  make([]float64, gr.StateDim),
			Action: UToRatio(u),
			Reward: 1,
		})
	}
	return tr
}

// BuildDataset must drop zero- and single-step trajectories (no usable
// (s,a,r,s') transition) instead of producing unusable entries.
func TestBuildDatasetSkipsDegenerateTrajectories(t *testing.T) {
	pool := &collector.Pool{Trajs: []collector.Trajectory{
		stepTraj("empty", 0, 0),
		stepTraj("single", 1, 0),
		stepTraj("ok", 10, 0),
	}}
	ds := BuildDataset(pool, nil)
	if len(ds.Trajs) != 1 {
		t.Fatalf("%d trajs kept, want 1", len(ds.Trajs))
	}
	if ds.Trajs[0].Scheme != "ok" {
		t.Fatalf("kept %q", ds.Trajs[0].Scheme)
	}
	if ds.Transitions() != 9 {
		t.Fatalf("Transitions = %d, want 9", ds.Transitions())
	}
	if ds.Norm == nil {
		t.Fatal("normalizer not fitted")
	}
}

// An all-degenerate pool must yield an empty (Transitions()==0) dataset
// rather than panicking — callers gate on Transitions before training.
func TestBuildDatasetAllDegenerate(t *testing.T) {
	pool := &collector.Pool{Trajs: []collector.Trajectory{
		stepTraj("a", 0, 0),
		stepTraj("b", 1, 0),
	}}
	ds := BuildDataset(pool, nil)
	if len(ds.Trajs) != 0 || ds.Transitions() != 0 {
		t.Fatalf("kept %d trajs, %d transitions", len(ds.Trajs), ds.Transitions())
	}
}

// With no eventful steps (all |u| below the 0.15 threshold) the event
// index is empty and prioritized sampling must fall back to uniform
// sampling without panicking or biasing.
func TestSampleSeqPrioritizedEmptyEventIndex(t *testing.T) {
	ds := &Dataset{Mask: gr.MaskFull()}
	for i := 0; i < 3; i++ {
		tr := Traj{Scheme: "flat", Env: "env"}
		for j := 0; j < 20; j++ {
			tr.Steps = append(tr.Steps, gr.Step{State: make([]float64, len(ds.Mask)), Reward: 1})
			tr.Actions = append(tr.Actions, 0.01) // well below event threshold
		}
		ds.Trajs = append(ds.Trajs, tr)
	}
	rng := rand.New(rand.NewSource(1))
	const L = 4
	for i := 0; i < 200; i++ {
		tr, start := ds.sampleSeqPrioritized(rng, L, 1.0) // always ask for events
		if tr == nil {
			t.Fatal("nil trajectory")
		}
		if start < 0 || start+L >= len(tr.Steps)+1 {
			t.Fatalf("window [%d,%d) out of range (%d states)", start, start+L, len(tr.Steps))
		}
	}
	if len(ds.events) != 0 {
		t.Fatalf("event index has %d entries, want 0", len(ds.events))
	}
}

// TestAddAfterSampleIndexesNewEvents is TrainOnlineRL's order: sample from
// a dataset whose only trajectory has no event, then add one that has two.
// The index must hold the new trajectory's events, and prioritized windows
// must now cover them.
func TestAddAfterSampleIndexesNewEvents(t *testing.T) {
	ds := &Dataset{Mask: gr.MaskFull()}
	steps := func(n int) []gr.Step {
		s := make([]gr.Step, n)
		for i := range s {
			s[i].State = make([]float64, len(ds.Mask))
		}
		return s
	}
	ds.add("calm", "env", steps(20), make([]float64, 20))
	rng := rand.New(rand.NewSource(3))
	ds.sampleSeqPrioritized(rng, 4, 1.0)
	if len(ds.events) != 0 {
		t.Fatalf("calm dataset indexed %d events", len(ds.events))
	}

	acts := make([]float64, 20)
	acts[6], acts[13] = 0.15, -0.4
	ds.add("bursty", "env", steps(20), acts)
	ds.sampleSeqPrioritized(rng, 4, 1.0)
	want := []eventPos{{1, 6}, {1, 13}}
	if fmt.Sprint(ds.events) != fmt.Sprint(want) {
		t.Fatalf("event index %v after adding a trajectory with events at steps 6 and 13, want %v", ds.events, want)
	}
	for i := 0; i < 200; i++ {
		if tr, _ := ds.sampleSeqPrioritized(rng, 4, 1.0); tr.Scheme != "bursty" {
			t.Fatalf("draw %d: an event-anchored window came from %q", i, tr.Scheme)
		}
	}
}

// With events present, anchored windows must stay in bounds even when the
// event sits at a trajectory edge.
func TestSampleSeqPrioritizedAnchorsInBounds(t *testing.T) {
	ds := &Dataset{Mask: gr.MaskFull()}
	tr := Traj{Scheme: "edgy", Env: "env"}
	for j := 0; j < 12; j++ {
		tr.Steps = append(tr.Steps, gr.Step{State: make([]float64, len(ds.Mask)), Reward: 1})
		u := 0.01
		if j == 0 || j == 11 {
			u = 0.9 // events at both edges
		}
		tr.Actions = append(tr.Actions, u)
	}
	ds.Trajs = []Traj{tr}
	rng := rand.New(rand.NewSource(2))
	const L = 4
	for i := 0; i < 500; i++ {
		got, start := ds.sampleSeqPrioritized(rng, L, 1.0)
		if start < 0 || start+L > len(got.Steps)-1 {
			t.Fatalf("window [%d,%d) lacks a next state (%d states)", start, start+L, len(got.Steps))
		}
	}
}

// TestCheckSeqLen: 4 trajectories × 5 states hold 16 transitions but no
// window of the default 8 states; the check names the longest trajectory,
// passes as soon as one trajectory holds a window, and — touching no stream —
// leaves the sampler's draws what they were.
func TestCheckSeqLen(t *testing.T) {
	ds := &Dataset{Mask: []int{0}}
	for i := 0; i < 4; i++ {
		tr := Traj{}
		for j := 0; j < 5; j++ {
			tr.Steps = append(tr.Steps, gr.Step{State: []float64{float64(j)}})
			tr.Actions = append(tr.Actions, 0)
		}
		ds.Trajs = append(ds.Trajs, tr)
	}
	if ds.Transitions() != 16 {
		t.Fatalf("transitions = %d", ds.Transitions())
	}
	for _, L := range []int{6, 8} {
		err := ds.CheckSeqLen(L)
		if !errors.Is(err, ErrShortTrajectories) || !strings.Contains(err.Error(), "has 5 states") {
			t.Fatalf("CheckSeqLen(%d) = %v, want ErrShortTrajectories naming 5 states", L, err)
		}
	}
	for _, L := range []int{4, 5} {
		if err := ds.CheckSeqLen(L); err != nil {
			t.Fatalf("CheckSeqLen(%d) = %v on 5-state trajectories", L, err)
		}
	}
	if err := (&Dataset{}).CheckSeqLen(1); !errors.Is(err, ErrShortTrajectories) {
		t.Fatalf("empty dataset: %v", err)
	}
	if _, err := TrainBC(ds, BCConfig{SeqLen: 8, Steps: 1}, nil); !errors.Is(err, ErrShortTrajectories) {
		t.Fatalf("TrainBC on short trajectories: %v", err)
	}
	if _, err := NewShardWorker(ds, CRRConfig{Workers: 2}, 0, 2); !errors.Is(err, ErrShortTrajectories) {
		t.Fatalf("NewShardWorker on short trajectories: %v", err)
	}
}

// trajStates lists a trajectory's states, for fitting a normalizer on it.
func trajStates(tr Traj) [][]float64 {
	states := make([][]float64, len(tr.Steps))
	for i, s := range tr.Steps {
		states[i] = s.State
	}
	return states
}

// randomPool is trajs trajectories of n steps each, every state width
// values wide, drawn from seed; every 97th value is NaN.
func randomPool(trajs, n, width int, seed int64) *collector.Pool {
	rng := rand.New(rand.NewSource(seed))
	pool := &collector.Pool{}
	k := 0
	for i := 0; i < trajs; i++ {
		tr := collector.Trajectory{Scheme: fmt.Sprintf("s%d", i), Env: "env"}
		for j := 0; j < n; j++ {
			st := make([]float64, width)
			for c := range st {
				if st[c] = rng.NormFloat64() * float64(c+1); k%97 == 0 {
					st[c] = math.NaN()
				}
				k++
			}
			tr.Steps = append(tr.Steps, gr.Step{State: st, Action: rng.Float64() * 2, Reward: rng.Float64()})
		}
		pool.Trajs = append(pool.Trajs, tr)
	}
	return pool
}

// The normalizer BuildDataset fits on raw states and projects through the
// mask is bit for bit the one fitted on masked copies of the same stride
// sample, the way the dataset was built when it held those copies.
func TestDatasetNormMatchesMaskedFit(t *testing.T) {
	for _, c := range []struct {
		name string
		pool *collector.Pool
		mask []int
	}{
		{"no-min-max", randomPool(6, 300, gr.StateDim, 1), gr.MaskNoMinMax()},
		// 100 500 states: a stride of 2, and a mask out of index order.
		{"strided", randomPool(5, 20100, 6, 2), []int{3, 0, 5}},
	} {
		ds := BuildDataset(c.pool, c.mask)
		var masked [][]float64
		for _, tr := range c.pool.Trajs {
			for _, s := range tr.Steps {
				masked = append(masked, gr.ApplyMask(s.State, c.mask))
			}
		}
		stride := 1
		if len(masked) > 50000 {
			stride = len(masked) / 50000
		}
		var sample [][]float64
		for i := 0; i < len(masked); i += stride {
			sample = append(sample, masked[i])
		}
		want := nn.FitNormalizer(sample)
		for j := range c.mask {
			if math.Float64bits(ds.Norm.Mean[j]) != math.Float64bits(want.Mean[j]) || math.Float64bits(ds.Norm.Std[j]) != math.Float64bits(want.Std[j]) {
				t.Fatalf("%s: column %d: mean/std %v/%v, the masked fit's %v/%v", c.name, j, ds.Norm.Mean[j], ds.Norm.Std[j], want.Mean[j], want.Std[j])
			}
		}
		if len(ds.Norm.Mean) != len(c.mask) || len(ds.Norm.Std) != len(c.mask) {
			t.Fatalf("%s: normalizer of %d/%d columns, mask of %d", c.name, len(ds.Norm.Mean), len(ds.Norm.Std), len(c.mask))
		}
	}
}

// A dataset reads the pool's states through the mask instead of copying
// them: what it keeps beyond the pool is an action per step and a few
// headers, not a state per step.
func TestBuildDatasetKeepsNoStateCopy(t *testing.T) {
	pool := randomPool(40, 500, gr.StateDim, 3)
	var ds *Dataset
	kept := alloctest.Retained(func() { ds = BuildDataset(pool, nil) })
	perTransition := float64(kept) / float64(ds.Transitions())
	runtime.KeepAlive(pool)
	if perTransition > 16 {
		t.Fatalf("a built dataset keeps %.1f B of heap per transition, want ≤ 16", perTransition)
	}
	t.Logf("%.1f B per transition", perTransition)
}

// A pool decoded from disk may hold states of any width. One too narrow
// for the mask is refused by BuildDataset, naming the trajectory, rather
// than by the training worker that would first read through it.
func TestBuildDatasetRejectsNarrowState(t *testing.T) {
	pool := randomPool(3, 10, gr.StateDim, 4)
	pool.Trajs[1] = collector.Trajectory{Scheme: "narrow", Env: "disk", Steps: randomPool(1, 10, 40, 5).Trajs[0].Steps}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "trajectory 1 (narrow on disk)") || !strings.Contains(msg, "state of 40 values, the mask reads 69") {
			t.Fatalf("BuildDataset panicked with %q, want the narrow trajectory named", msg)
		}
	}()
	BuildDataset(pool, nil)
}

package rl

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"sage/internal/collector"
	"sage/internal/gr"
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
			tr.States = append(tr.States, make([]float64, len(ds.Mask)))
			tr.Actions = append(tr.Actions, 0.01) // well below event threshold
			tr.Rewards = append(tr.Rewards, 1)
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
		if start < 0 || start+L >= len(tr.States)+1 {
			t.Fatalf("window [%d,%d) out of range (%d states)", start, start+L, len(tr.States))
		}
	}
	if len(ds.events) != 0 {
		t.Fatalf("event index has %d entries, want 0", len(ds.events))
	}
}

// With events present, anchored windows must stay in bounds even when the
// event sits at a trajectory edge.
func TestSampleSeqPrioritizedAnchorsInBounds(t *testing.T) {
	ds := &Dataset{Mask: gr.MaskFull()}
	tr := Traj{Scheme: "edgy", Env: "env"}
	for j := 0; j < 12; j++ {
		tr.States = append(tr.States, make([]float64, len(ds.Mask)))
		u := 0.01
		if j == 0 || j == 11 {
			u = 0.9 // events at both edges
		}
		tr.Actions = append(tr.Actions, u)
		tr.Rewards = append(tr.Rewards, 1)
	}
	ds.Trajs = []Traj{tr}
	rng := rand.New(rand.NewSource(2))
	const L = 4
	for i := 0; i < 500; i++ {
		got, start := ds.sampleSeqPrioritized(rng, L, 1.0)
		if start < 0 || start+L > len(got.States)-1 {
			t.Fatalf("window [%d,%d) lacks a next state (%d states)", start, start+L, len(got.States))
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
			tr.States = append(tr.States, []float64{float64(j)})
			tr.Actions = append(tr.Actions, 0)
			tr.Rewards = append(tr.Rewards, 0)
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

// Package rl implements the Core Learning block (Section 4.2): the CRR-based
// offline learner that trains Sage's policy from the pool, plus the learning
// baselines of the ML league (behavioral cloning and its variants, online
// off-policy RL, Aurora-style on-policy policy gradient, Genet-style
// curriculum, Orca/DeepCC-style hybrid control, and Indigo-style oracle
// imitation).
package rl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/nn"
)

// ActionToU maps the GR action (cwnd ratio) into the learner's action space
// u = clamp(log2(a), −1, 1); ratios are multiplicative, so the log makes the
// GMM's support symmetric around "hold".
func ActionToU(ratio float64) float64 {
	if ratio <= 0 {
		return -1
	}
	u := math.Log2(ratio)
	if u > 1 {
		u = 1
	}
	if u < -1 {
		u = -1
	}
	return u
}

// UToRatio is the inverse map applied at deployment: cwnd *= 2^u.
func UToRatio(u float64) float64 {
	if u > 1 {
		u = 1
	}
	if u < -1 {
		u = -1
	}
	return math.Exp2(u)
}

// Traj is one trajectory in learner form.
type Traj struct {
	Scheme  string
	Env     string
	States  [][]float64 // masked state vectors
	Actions []float64   // u-space actions
	Rewards []float64
}

// Dataset is the pool converted for training: masked states, log-ratio
// actions, and a fitted input normalizer.
type Dataset struct {
	Mask  []int
	Trajs []Traj
	Norm  *nn.Normalizer

	events []eventPos // lazily built index of large-action steps
}

// BuildDataset converts a collector pool, projecting states through mask
// (nil = all 69 signals) and fitting the normalizer.
func BuildDataset(pool *collector.Pool, mask []int) *Dataset {
	if mask == nil {
		mask = gr.MaskFull()
	}
	ds := &Dataset{Mask: mask}
	var sample [][]float64
	for _, tr := range pool.Trajs {
		if len(tr.Steps) < 2 {
			continue
		}
		t := Traj{Scheme: tr.Scheme, Env: tr.Env}
		for _, s := range tr.Steps {
			t.States = append(t.States, gr.ApplyMask(s.State, mask))
			t.Actions = append(t.Actions, ActionToU(s.Action))
			t.Rewards = append(t.Rewards, s.Reward)
		}
		ds.Trajs = append(ds.Trajs, t)
	}
	// Fit the normalizer on a subsample to bound memory.
	stride := 1
	if n := countStates(ds); n > 50000 {
		stride = n / 50000
	}
	i := 0
	for _, t := range ds.Trajs {
		for _, s := range t.States {
			if i%stride == 0 {
				sample = append(sample, s)
			}
			i++
		}
	}
	ds.Norm = nn.FitNormalizer(sample)
	return ds
}

func countStates(ds *Dataset) int {
	n := 0
	for _, t := range ds.Trajs {
		n += len(t.States)
	}
	return n
}

// Transitions returns the number of usable (s,a,r,s') tuples.
func (ds *Dataset) Transitions() int {
	n := 0
	for _, t := range ds.Trajs {
		if len(t.States) > 1 {
			n += len(t.States) - 1
		}
	}
	return n
}

// CheckSeqLen reports whether the dataset can be sampled in windows of L
// states: some trajectory must hold at least L. (With L+1 or more the
// samplers draw windows whose every transition has a next state; with
// exactly L they fall back to the longest trajectory from its start, whose
// last transition then trains the policy but gets no TD target — the closed
// loop's 8-step trace windows under the default SeqLen 8 train this way.)
// Trainers call it before their first step: a pool of only shorter
// trajectories is "not enough data yet", not something to sample from.
func (ds *Dataset) CheckSeqLen(L int) error {
	longest := 0
	for i := range ds.Trajs {
		longest = max(longest, len(ds.Trajs[i].States))
	}
	if longest < L {
		return fmt.Errorf("rl: %w: the longest of %d trajectories has %d states, sequences need %d",
			ErrShortTrajectories, len(ds.Trajs), longest, L)
	}
	return nil
}

// ErrShortTrajectories is wrapped by CheckSeqLen's error.
var ErrShortTrajectories = errors.New("no trajectory is long enough to train on")

// InDim returns the masked input dimension.
func (ds *Dataset) InDim() int { return len(ds.Mask) }

// sampleSeq draws a random subsequence of length L with a valid next state
// after every step (so index i+1 exists for TD targets).
func (ds *Dataset) sampleSeq(rng *rand.Rand, L int) (t *Traj, start int) {
	for tries := 0; tries < 100; tries++ {
		tr := &ds.Trajs[rng.Intn(len(ds.Trajs))]
		if len(tr.States) < L+1 {
			continue
		}
		return tr, rng.Intn(len(tr.States) - L)
	}
	// Fall back to the longest trajectory.
	best := &ds.Trajs[0]
	for i := range ds.Trajs {
		if len(ds.Trajs[i].States) > len(best.States) {
			best = &ds.Trajs[i]
		}
	}
	return best, 0
}

// eventPos locates "eventful" steps: large window moves (slow-start bursts,
// loss backoffs). They are a sub-percent fraction of the pool but carry all
// of the policy's congestion-response information, so the learner
// oversamples sequences around them (the offline-RL analogue of prioritized
// replay).
type eventPos struct {
	traj, step int
}

func (ds *Dataset) buildEventIndex() {
	if ds.events != nil {
		return
	}
	ds.events = []eventPos{}
	for ti := range ds.Trajs {
		tr := &ds.Trajs[ti]
		for si, u := range tr.Actions {
			if u >= 0.15 || u <= -0.15 {
				ds.events = append(ds.events, eventPos{ti, si})
			}
		}
	}
}

// sampleSeqPrioritized is sampleSeq, but with probability eventFrac the
// window is anchored around an eventful step.
func (ds *Dataset) sampleSeqPrioritized(rng *rand.Rand, L int, eventFrac float64) (*Traj, int) {
	ds.buildEventIndex()
	if len(ds.events) == 0 || rng.Float64() >= eventFrac {
		return ds.sampleSeq(rng, L)
	}
	for tries := 0; tries < 20; tries++ {
		ev := ds.events[rng.Intn(len(ds.events))]
		tr := &ds.Trajs[ev.traj]
		if len(tr.States) < L+1 {
			continue
		}
		start := ev.step - rng.Intn(L)
		if start < 0 {
			start = 0
		}
		if start > len(tr.States)-L-1 {
			start = len(tr.States) - L - 1
		}
		return tr, start
	}
	return ds.sampleSeq(rng, L)
}

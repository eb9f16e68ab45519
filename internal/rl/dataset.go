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
	"slices"

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

// Traj is one trajectory in learner form: the pool's steps, read through
// the dataset's mask, and their actions in u-space.
type Traj struct {
	Scheme  string
	Env     string
	Steps   []gr.Step // the pool's own steps: shared, never written
	Actions []float64 // u-space actions
}

// Dataset is the pool as the learner reads it: trajectories whose states
// are projected through Mask as they are read, log-ratio actions, and a
// fitted input normalizer.
type Dataset struct {
	Mask  []int
	Trajs []Traj
	Norm  *nn.Normalizer

	events []eventPos // lazily built index of large-action steps
}

// BuildDataset converts a collector pool, reading states through mask
// (nil = all 69 signals) and fitting the normalizer. The dataset shares the
// pool's steps, so the pool must not change while it is in use. A state
// too narrow for the mask panics here, naming its trajectory, rather than in
// a training worker.
func BuildDataset(pool *collector.Pool, mask []int) *Dataset {
	if mask == nil {
		mask = gr.MaskFull()
	}
	ds := &Dataset{Mask: mask}
	for _, tr := range pool.Trajs {
		ds.add(tr.Scheme, tr.Env, tr.Steps, nil)
	}
	ds.fitNorm()
	return ds
}

// add appends steps as a trajectory, with actions in u-space (nil = each
// step's cwnd ratio through ActionToU). A trajectory of fewer than two
// steps holds no transition and is dropped. Adding drops the event index;
// it is rebuilt by the next prioritized sample, or before a parallel step
// fans out, on the training goroutine either way.
func (ds *Dataset) add(scheme, env string, steps []gr.Step, actions []float64) {
	if len(steps) < 2 {
		return
	}
	w := slices.Max(ds.Mask) + 1 // how many values of a state the mask reads
	for i, s := range steps {
		if len(s.State) < w {
			panic(fmt.Sprintf("rl: trajectory %d (%s on %s): step %d has a state of %d values, the mask reads %d",
				len(ds.Trajs), scheme, env, i, len(s.State), w))
		}
	}
	if actions == nil {
		actions = make([]float64, len(steps))
		for i, s := range steps {
			actions[i] = ActionToU(s.Action)
		}
	}
	ds.Trajs = append(ds.Trajs, Traj{Scheme: scheme, Env: env, Steps: steps, Actions: actions})
	ds.events = nil // the next sample re-indexes, this trajectory's events included
}

// fitNorm fits the normalizer on a stride sample of at most about 50 000
// raw states and projects it through the mask. FitNormalizer sums every
// dimension on its own, so this is bit for bit the fit on the sample's
// masked copies.
func (ds *Dataset) fitNorm() {
	n, w := 0, slices.Max(ds.Mask)+1
	for _, t := range ds.Trajs {
		n += len(t.Steps)
	}
	stride, i := max(1, n/50000), 0
	var sample [][]float64
	for _, t := range ds.Trajs {
		for _, s := range t.Steps {
			if i%stride == 0 {
				sample = append(sample, s.State[:w])
			}
			i++
		}
	}
	raw := nn.FitNormalizer(sample)
	ds.Norm = raw
	if len(raw.Mean) > 0 {
		ds.Norm = &nn.Normalizer{Mean: make([]float64, len(ds.Mask)), Std: make([]float64, len(ds.Mask))}
		for j, k := range ds.Mask {
			ds.Norm.Mean[j], ds.Norm.Std[j] = raw.Mean[k], raw.Std[k]
		}
	}
}

// row writes step i of tr through the mask into dst (len == InDim): the one
// place the learner reads a state.
func (ds *Dataset) row(dst []float64, tr *Traj, i int) {
	gr.ApplyMaskInto(dst, tr.Steps[i].State, ds.Mask)
}

// Transitions returns the number of usable (s,a,r,s') tuples.
func (ds *Dataset) Transitions() int {
	n := 0
	for _, t := range ds.Trajs {
		if len(t.Steps) > 1 {
			n += len(t.Steps) - 1
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
		longest = max(longest, len(ds.Trajs[i].Steps))
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
		if len(tr.Steps) < L+1 {
			continue
		}
		return tr, rng.Intn(len(tr.Steps) - L)
	}
	// Fall back to the longest trajectory.
	best := &ds.Trajs[0]
	for i := range ds.Trajs {
		if len(ds.Trajs[i].Steps) > len(best.Steps) {
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
		if len(tr.Steps) < L+1 {
			continue
		}
		start := ev.step - rng.Intn(L)
		if start < 0 {
			start = 0
		}
		if start > len(tr.Steps)-L-1 {
			start = len(tr.Steps) - L - 1
		}
		return tr, start
	}
	return ds.sampleSeq(rng, L)
}

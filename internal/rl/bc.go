package rl

import (
	"fmt"
	"math/rand"

	"sage/internal/nn"
)

// BCConfig tunes behavioral cloning: the same policy architecture as Sage,
// trained purely by maximizing the data log-likelihood (the paper's BC,
// BC-top, BC-top3 and BCv2 baselines differ only in the pool they see).
type BCConfig struct {
	Policy nn.PolicyConfig
	Batch  int
	SeqLen int
	Steps  int
	LR     float64
	Seed   int64
}

// Fill applies defaults.
func (c BCConfig) Fill() BCConfig {
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.SeqLen == 0 {
		c.SeqLen = 8
	}
	if c.Steps == 0 {
		c.Steps = 1000
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	return c
}

// imitator is the log-likelihood step behavioral cloning and Indigo's
// supervised phase share: sample segments, run the policy over them on one
// tape, backpropagate −mean logπ(a|s).
type imitator struct {
	pol     *nn.Policy
	tape    nn.PolicyTape
	actions []float64 // the sampled segments' actions, sequence-major
}

// accumulate samples batch segments of seqLen steps from ds, adds the
// gradient of their mean negative log-likelihood to the policy's
// accumulators and returns the summed −logπ.
func (m *imitator) accumulate(ds *Dataset, rng *rand.Rand, batch, seqLen int) (nll float64) {
	t := &m.tape
	t.Reset(batch, seqLen, ds.InDim())
	m.actions = grow(m.actions, batch*seqLen)
	for b := 0; b < batch; b++ {
		tr, start := ds.sampleSeq(rng, seqLen)
		for i := 0; i < seqLen; i++ {
			ds.row(t.X.Row(t.Row(b, i)), tr, start+i)
			m.actions[b*seqLen+i] = tr.Actions[start+i]
		}
	}
	m.pol.ForwardTape(t)
	for b := 0; b < batch; b++ {
		for i := seqLen - 1; i >= 0; i-- {
			dp := t.DHeads.Row(t.Row(b, i))
			nll += -m.pol.GMM.LogProbGrad(t.Heads.Row(t.Row(b, i)), m.actions[b*seqLen+i], dp)
			w := -1.0 / float64(batch*seqLen)
			for k := range dp {
				dp[k] *= w
			}
		}
	}
	m.pol.BackwardTape(t)
	return nll
}

// TrainBC trains a policy by log-likelihood on the dataset and returns it.
// A non-finite loss (NaN/Inf from poisoned data or a diverged update)
// fails fast with an error instead of silently emitting a NaN policy.
func TrainBC(ds *Dataset, cfg BCConfig, progress func(step int, nll float64)) (*nn.Policy, error) {
	cfg = cfg.Fill()
	if err := ds.CheckSeqLen(cfg.SeqLen); err != nil {
		return nil, err
	}
	cfg.Policy.InDim = ds.InDim()
	cfg.Policy.Seed = cfg.Seed
	pol := nn.NewPolicy(cfg.Policy)
	pol.Norm = ds.Norm
	opt := nn.NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed + 303))
	im := &imitator{pol: pol}

	for step := 1; step <= cfg.Steps; step++ {
		nll := im.accumulate(ds, rng, cfg.Batch, cfg.SeqLen)
		if !finite(nll) {
			return nil, fmt.Errorf("rl: BC diverged at step %d: non-finite loss", step)
		}
		nn.ClipGrads(pol, 10, nn.GradNorm(pol))
		opt.Step(pol)
		if progress != nil {
			progress(step, nll/float64(cfg.Batch*cfg.SeqLen))
		}
	}
	return pol, nil
}

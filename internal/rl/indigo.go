package rl

import (
	"fmt"
	"math/rand"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// IndigoConfig tunes the Indigo baseline (Yan et al., ATC 2018): imitation
// learning from congestion-control oracles. The oracle's ideal window is the
// environment's BDP (or the fair-share BDP in multi-flow scenarios) — known
// here because training runs under emulation, exactly the assumption Indigo
// needs and the reason it cannot generalize beyond it (Section 6.2).
type IndigoConfig struct {
	Policy      nn.PolicyConfig
	GR          gr.Config
	Scenarios   []netem.Scenario // include multi-flow ones for Indigov2
	DaggerIters int              // DAgger outer iterations (default 3)
	StepsPer    int              // supervised steps per iteration (default 200)
	Batch       int
	SeqLen      int
	LR          float64
	Mask        []int
	Seed        int64
}

func (c IndigoConfig) fill() IndigoConfig {
	if c.DaggerIters == 0 {
		c.DaggerIters = 3
	}
	if c.StepsPer == 0 {
		c.StepsPer = 200
	}
	if c.Batch == 0 {
		c.Batch = 8
	}
	if c.SeqLen == 0 {
		c.SeqLen = 8
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Mask == nil {
		c.Mask = gr.MaskFull()
	}
	return c
}

// oracleController labels every visited state with the expert action while
// letting either the oracle itself or the learner pick the executed action
// (DAgger's mixing). The states are the rollout's own steps: Run records
// one per Control call, so targets[i] labels Steps[i].
type oracleController struct {
	sc      netem.Scenario
	learner *PolicyController // nil = pure oracle rollout

	targets []float64
}

func (o *oracleController) oracleU(conn *tcp.Conn, now sim.Time) float64 {
	capacity := o.sc.Rate.At(now)
	if o.sc.CubicFlows > 0 {
		capacity /= float64(o.sc.CubicFlows + 1)
	}
	ideal := capacity / 8 * o.sc.MinRTT.Seconds() / float64(conn.MSS())
	if ideal < 2 {
		ideal = 2
	}
	return ActionToU(ideal / conn.Cwnd)
}

// Control implements rollout.Controller.
func (o *oracleController) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	u := o.oracleU(conn, now)
	o.targets = append(o.targets, u)
	if o.learner != nil {
		o.learner.Control(now, conn, state)
		return
	}
	conn.SetCwnd(conn.Cwnd * UToRatio(u))
}

// TrainIndigo runs DAgger-style imitation of the oracle and returns the
// policy. A non-finite imitation loss fails fast with an error instead of
// silently emitting a NaN policy.
func TrainIndigo(cfg IndigoConfig) (*nn.Policy, error) {
	cfg = cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed + 888))
	cfg.Policy.InDim = len(cfg.Mask)
	cfg.Policy.Seed = cfg.Seed
	pol := nn.NewPolicy(cfg.Policy)
	opt := nn.NewAdam(cfg.LR)
	im := &imitator{pol: pol}

	ds := &Dataset{Mask: cfg.Mask}
	for iter := 0; iter < cfg.DaggerIters; iter++ {
		// Collect labeled rollouts: first iteration from the oracle, later
		// iterations from the current policy (DAgger aggregation).
		for _, sc := range cfg.Scenarios {
			oc := &oracleController{sc: sc}
			if iter > 0 {
				oc.learner = NewPolicyController(pol, cfg.Mask, false, cfg.Seed+int64(iter))
			}
			res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{GR: cfg.GR, Controller: oc, CollectSteps: true})
			ds.add("oracle", sc.Name, res.Steps, oc.targets)
		}
		if ds.Norm == nil {
			ds.fitNorm()
			pol.Norm = ds.Norm
		}
		// Supervised regression on the aggregated dataset.
		if err := ds.CheckSeqLen(cfg.SeqLen); err != nil {
			return nil, err
		}
		for step := 0; step < cfg.StepsPer; step++ {
			nll := im.accumulate(ds, rng, cfg.Batch, cfg.SeqLen)
			if !finite(nll) {
				return nil, fmt.Errorf("rl: indigo diverged at iteration %d step %d: non-finite loss", iter, step)
			}
			nn.ClipGrads(pol, 10, nn.GradNorm(pol))
			opt.Step(pol)
		}
	}
	return pol, nil
}

package rl

import (
	"context"
	"fmt"
	"math/rand"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
)

// OnlineRLConfig tunes the online off-policy actor-critic baseline
// ("OnlineRL" in Fig. 9) and its hybrid variants (Orca, Orcav2, DeepCC):
// the same networks and update rule as Sage, but the data is collected by
// the agent itself, iteratively, from live environments — exactly the
// paradigm whose scaling trouble Section 6.2 demonstrates.
type OnlineRLConfig struct {
	CRR        CRRConfig
	GR         gr.Config
	Scenarios  []netem.Scenario
	Rounds     int    // environment interactions
	StepsPer   int    // gradient steps after each rollout
	Underlying string // "pure" for clean-slate, "cubic" for hybrid (Orca/DeepCC)
	Mask       []int
	Seed       int64
}

func (c OnlineRLConfig) fill() OnlineRLConfig {
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.StepsPer == 0 {
		c.StepsPer = 50
	}
	if c.Underlying == "" {
		c.Underlying = "pure"
	}
	if c.Mask == nil {
		c.Mask = gr.MaskFull()
	}
	return c
}

// TrainOnlineRL runs the online loop: rollout the current (stochastic)
// policy on a random training environment, append the experience to the
// replay data, and take gradient steps. It returns the trained policy.
// Divergence — a non-finite loss or non-finite weights after a round of
// updates — aborts with an error instead of silently emitting a NaN
// policy (the failure mode Section 6.2 observes for this paradigm).
func TrainOnlineRL(cfg OnlineRLConfig) (*nn.Policy, error) {
	cfg = cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed + 555))

	ds := &Dataset{Mask: cfg.Mask}
	crrCfg := cfg.CRR
	crrCfg.Seed = cfg.Seed

	// Bootstrap replay with one random-ish rollout per round-robin env so
	// the normalizer has data.
	var learner *CRR
	for round := 0; round < cfg.Rounds; round++ {
		sc := cfg.Scenarios[rng.Intn(len(cfg.Scenarios))]
		opt := rollout.Options{GR: cfg.GR, CollectSteps: true}
		// Before the first update the policy does not exist yet: the
		// underlying scheme runs alone to seed the buffer.
		if learner != nil {
			opt.Controller = NewPolicyController(learner.Policy, cfg.Mask, true, cfg.Seed+int64(round))
		}
		res := rollout.Run(sc, cc.MustNew(cfg.Underlying), opt)
		ds.add("online", sc.Name, res.Steps, nil)
		if learner == nil {
			if len(ds.Trajs) == 0 {
				continue
			}
			// Fit the normalizer on the seed data and build the learner.
			ds.fitNorm()
			learner = NewCRR(ds, crrCfg)
		}
		saved := learner.Cfg.Steps
		learner.Cfg.Steps = cfg.StepsPer
		learner.Train(context.Background(), ds, nil)
		learner.Cfg.Steps = saved
		if !finite(learner.LastCriticLoss) || !finite(learner.LastPolicyLoss) || !learner.ParamsFinite() {
			return nil, fmt.Errorf("rl: online RL diverged in round %d: non-finite loss or weights", round)
		}
	}
	if learner == nil {
		// Degenerate config; return an untrained policy of the right shape.
		pc := crrCfg.Fill().Policy
		pc.InDim = len(cfg.Mask)
		return nn.NewPolicy(pc), nil
	}
	return learner.Policy, nil
}

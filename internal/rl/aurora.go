package rl

import (
	"fmt"
	"math/rand"
	"sort"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
)

// AuroraConfig tunes the Aurora baseline (Jay et al., ICML 2019): a simple
// on-policy policy-gradient agent over a feed-forward network, trained with
// the single-flow reward only. With Curriculum set it becomes the Genet
// baseline (Xia et al., SIGCOMM 2022): training progresses from low-BDP,
// stable environments to the full set.
type AuroraConfig struct {
	Policy     nn.PolicyConfig // forced NoGRU (Aurora is feed-forward)
	GR         gr.Config
	Scenarios  []netem.Scenario
	Episodes   int     // on-policy episodes
	LR         float64 // default 1e-3
	Gamma      float64 // default 0.95
	Mask       []int
	Curriculum bool
	Seed       int64
}

func (c AuroraConfig) fill() AuroraConfig {
	if c.Episodes == 0 {
		c.Episodes = 20
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Gamma == 0 {
		c.Gamma = 0.95
	}
	if c.Mask == nil {
		c.Mask = gr.MaskFull()
	}
	c.Policy.NoGRU = true
	return c
}

// difficulty orders scenarios for the Genet curriculum: small, stable pipes
// first; large-BDP and step scenarios later.
func difficulty(sc netem.Scenario) float64 {
	d := sc.Rate.MaxRate() * sc.MinRTT.Seconds()
	if len(sc.Name) >= 4 && sc.Name[:4] == "step" {
		d *= 4
	}
	if sc.CubicFlows > 0 {
		d *= 2
	}
	return d
}

// TrainAurora runs REINFORCE with a mean baseline and returns the policy.
// Non-finite returns or gradients (the divergence mode Jay et al. report
// for exactly this training loop) abort with an error instead of letting
// a NaN update silently corrupt the policy.
func TrainAurora(cfg AuroraConfig) (*nn.Policy, error) {
	cfg = cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed + 777))
	scens := append([]netem.Scenario(nil), cfg.Scenarios...)
	if cfg.Curriculum {
		sort.SliceStable(scens, func(i, j int) bool { return difficulty(scens[i]) < difficulty(scens[j]) })
	}

	// Seed rollout for the normalizer (run cubic once).
	seedRes := rollout.Run(scens[0], cc.MustNew("cubic"), rollout.Options{GR: cfg.GR, CollectSteps: true})
	seedDS := &Dataset{Mask: cfg.Mask, Trajs: []Traj{{Steps: seedRes.Steps}}}
	seedDS.fitNorm()
	cfg.Policy.InDim = len(cfg.Mask)
	cfg.Policy.Seed = cfg.Seed
	pol := nn.NewPolicy(cfg.Policy)
	pol.Norm = seedDS.Norm
	opt := nn.NewAdam(cfg.LR)
	var tape nn.PolicyTape // every step of an episode is a one-step sequence

	for ep := 0; ep < cfg.Episodes; ep++ {
		var sc netem.Scenario
		if cfg.Curriculum {
			// Expand the pool of eligible environments as training advances.
			frac := float64(ep+1) / float64(cfg.Episodes)
			hi := int(frac * float64(len(scens)))
			if hi < 1 {
				hi = 1
			}
			sc = scens[rng.Intn(hi)]
		} else {
			sc = scens[rng.Intn(len(scens))]
		}
		ctl := NewPolicyController(pol, cfg.Mask, true, cfg.Seed+int64(ep))
		ctl.Record = true
		res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{
			GR: cfg.GR, CollectSteps: true, Controller: ctl,
			// Aurora considers only the single-flow reward (Section 6.2).
			SingleFlowReward: true,
		})
		// Run records one step per Control call, so Actions[i] was taken in
		// Steps[i].State.
		n := min(len(ctl.Actions), len(res.Steps))
		if n == 0 {
			continue
		}
		// Discounted returns with mean baseline.
		returns := make([]float64, n)
		g := 0.0
		for i := n - 1; i >= 0; i-- {
			g = res.Steps[i].Reward + float64(cfg.Gamma*g)
			returns[i] = g
		}
		mean := 0.0
		for _, r := range returns {
			mean += r
		}
		mean /= float64(n)
		if !finite(mean) {
			return nil, fmt.Errorf("rl: aurora diverged at episode %d: non-finite return", ep)
		}

		tape.Reset(n, 1, len(cfg.Mask))
		for i := 0; i < n; i++ {
			gr.ApplyMaskInto(tape.X.Row(i), res.Steps[i].State, cfg.Mask)
		}
		pol.ForwardTape(&tape)
		for i := 0; i < n; i++ {
			dp := tape.DHeads.Row(i)
			pol.GMM.LogProbGrad(tape.Heads.Row(i), ctl.Actions[i], dp)
			w := -(returns[i] - mean) / float64(n)
			for k := range dp {
				dp[k] *= w
			}
		}
		pol.BackwardTape(&tape)
		norm := nn.GradNorm(pol)
		if !finite(norm) {
			return nil, fmt.Errorf("rl: aurora diverged at episode %d: non-finite gradient", ep)
		}
		nn.ClipGrads(pol, 10, norm)
		opt.Step(pol)
	}
	return pol, nil
}

package exp

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/eval"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/rollout"
)

// Artifacts memoizes the expensive shared pieces of the evaluation: the
// pool of policies, the trained Sage model, and every learning baseline.
// All getters are safe for concurrent use and build lazily.
type Artifacts struct {
	S Sizing

	mu     sync.Mutex
	pool   *collector.Pool
	sage   *core.Model
	models map[string]*core.Model
	onceBy map[string]*sync.Once
}

// NewArtifacts returns an empty cache for the sizing.
func NewArtifacts(s Sizing) *Artifacts {
	return &Artifacts{S: s, models: map[string]*core.Model{}, onceBy: map[string]*sync.Once{}}
}

func (a *Artifacts) memo(key string, build func() *core.Model) *core.Model {
	a.mu.Lock()
	once, ok := a.onceBy[key]
	if !ok {
		once = &sync.Once{}
		a.onceBy[key] = once
	}
	a.mu.Unlock()
	once.Do(func() {
		m := build()
		a.mu.Lock()
		a.models[key] = m
		a.mu.Unlock()
	})
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.models[key]
}

// Pool collects (once) the pool of policies: the 13 kernel schemes over
// Set I and Set II.
func (a *Artifacts) Pool() *collector.Pool {
	a.mu.Lock()
	p := a.pool
	a.mu.Unlock()
	if p != nil {
		return p
	}
	scens := append(a.S.SetI(), a.S.SetII()...)
	p = mustCollect(collector.Collect(context.Background(), cc.PoolNames(), scens, collector.Options{Parallel: a.S.Parallel}))
	a.mu.Lock()
	if a.pool == nil {
		a.pool = p
	}
	p = a.pool
	a.mu.Unlock()
	return p
}

// Sage trains (once) the headline model with CRR on the full pool.
func (a *Artifacts) Sage() *core.Model {
	return a.memo("sage", func() *core.Model {
		return core.Train(a.Pool(), core.Config{CRR: a.S.crr()}, nil)
	})
}

// baselineNames lists every learning baseline Baseline can build.
var baselineNames = []string{"bc", "bc-top", "bc-top3", "bcv2", "onlinerl",
	"aurora", "genet", "orca", "orcav2", "deepcc", "indigo", "indigov2"}

// mustCollect unwraps a collector.Collect call whose inputs are
// compile-time constants (PoolNames over a background context): an error
// there is a programming bug, not a runtime condition.
func mustCollect(p *collector.Pool, err error) *collector.Pool {
	if err != nil {
		panic(err)
	}
	return p
}

// mustPol unwraps a baseline trainer result. The trainers only error on
// divergence (non-finite loss or weights); inside the experiment suite
// that is unrecoverable and should fail the run loudly rather than let a
// NaN policy skew every downstream table.
func mustPol(p *nn.Policy, err error) *nn.Policy {
	if err != nil {
		panic(err)
	}
	return p
}

// Baseline builds (once) the named learning baseline of the ML league.
// Unknown names return an error listing the known baselines instead of
// panicking mid-suite.
func (a *Artifacts) Baseline(name string) (*core.Model, error) {
	known := false
	for _, n := range baselineNames {
		if n == name {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("exp: unknown baseline %q (known: %s)", name, strings.Join(baselineNames, ", "))
	}
	return a.baseline(name), nil
}

// mustBaseline is Baseline for the compile-time-constant names Entrant
// dispatches on; the error path is unreachable there.
func (a *Artifacts) mustBaseline(name string) *core.Model {
	m, err := a.Baseline(name)
	if err != nil {
		panic(err)
	}
	return m
}

func (a *Artifacts) baseline(name string) *core.Model {
	s := a.S
	bcCfg := func() rl.BCConfig {
		return rl.BCConfig{Policy: s.Policy, Steps: s.BCSteps, Seed: s.Seed}
	}
	onlineCfg := func(underlying string, scens []netem.Scenario) rl.OnlineRLConfig {
		return rl.OnlineRLConfig{
			CRR:        s.crr(),
			Scenarios:  scens,
			Rounds:     s.OnlineRounds,
			StepsPer:   s.OnlineSteps,
			Underlying: underlying,
			Seed:       s.Seed,
		}
	}
	return a.memo(name, func() *core.Model {
		switch name {
		case "bc":
			ds := rl.BuildDataset(a.Pool(), nil)
			return core.WrapPolicy(mustPol(rl.TrainBC(ds, bcCfg(), nil)), nil, gr.Config{})
		case "bc-top":
			pool := a.Pool()
			sub := pool.FilterSchemes(pool.TopSchemes(1)...)
			ds := rl.BuildDataset(sub, nil)
			return core.WrapPolicy(mustPol(rl.TrainBC(ds, bcCfg(), nil)), nil, gr.Config{})
		case "bc-top3":
			pool := a.Pool()
			sub := pool.FilterSchemes(pool.TopSchemes(3)...)
			ds := rl.BuildDataset(sub, nil)
			return core.WrapPolicy(mustPol(rl.TrainBC(ds, bcCfg(), nil)), nil, gr.Config{})
		case "bcv2":
			ds := rl.BuildDataset(a.Pool().WinnersPerEnv(), nil)
			return core.WrapPolicy(mustPol(rl.TrainBC(ds, bcCfg(), nil)), nil, gr.Config{})
		case "onlinerl":
			scens := append(s.SetI(), s.SetII()...)
			return core.WrapPolicy(mustPol(rl.TrainOnlineRL(onlineCfg("pure", scens))), nil, gr.Config{})
		case "orca":
			// Orca: hybrid over Cubic, original single-flow-reward training.
			return core.WrapPolicy(mustPol(rl.TrainOnlineRL(onlineCfg("cubic", s.SetI()))), nil, gr.Config{})
		case "orcav2":
			// Orcav2: retrained with both rewards over Set I and Set II.
			scens := append(s.SetI(), s.SetII()...)
			return core.WrapPolicy(mustPol(rl.TrainOnlineRL(onlineCfg("cubic", scens))), nil, gr.Config{})
		case "deepcc":
			// DeepCC: hybrid plugin trained on variable-link scenarios only.
			var steps []netem.Scenario
			for _, sc := range s.SetI() {
				if len(sc.Name) >= 4 && sc.Name[:4] == "step" {
					steps = append(steps, sc)
				}
			}
			if len(steps) == 0 {
				steps = s.SetI()
			}
			return core.WrapPolicy(mustPol(rl.TrainOnlineRL(onlineCfg("cubic", steps))), nil, gr.Config{})
		case "aurora":
			pol := mustPol(rl.TrainAurora(rl.AuroraConfig{
				Policy: s.Policy, Scenarios: s.SetI(), Episodes: s.Episodes, Seed: s.Seed,
			}))
			return core.WrapPolicy(pol, nil, gr.Config{})
		case "genet":
			scens := append(s.SetI(), s.SetII()...)
			pol := mustPol(rl.TrainAurora(rl.AuroraConfig{
				Policy: s.Policy, Scenarios: scens, Episodes: s.Episodes,
				Curriculum: true, Seed: s.Seed,
			}))
			return core.WrapPolicy(pol, nil, gr.Config{})
		case "indigo":
			pol := mustPol(rl.TrainIndigo(rl.IndigoConfig{
				Policy: s.Policy, Scenarios: capScens(s.SetI(), 12),
				DaggerIters: s.DaggerIters, Seed: s.Seed,
			}))
			return core.WrapPolicy(pol, nil, gr.Config{})
		case "indigov2":
			scens := append(capScens(s.SetI(), 8), capScens(s.SetII(), 8)...)
			pol := mustPol(rl.TrainIndigo(rl.IndigoConfig{
				Policy: s.Policy, Scenarios: scens,
				DaggerIters: s.DaggerIters, Seed: s.Seed,
			}))
			return core.WrapPolicy(pol, nil, gr.Config{})
		}
		// Unreachable: Baseline validated name against baselineNames.
		return nil
	})
}

func capScens(scens []netem.Scenario, n int) []netem.Scenario {
	if len(scens) > n {
		return scens[:n]
	}
	return scens
}

// Entrant wraps a name into a league entrant: "sage", a baseline name, or a
// registered cc scheme.
func (a *Artifacts) Entrant(name string) eval.Entrant {
	switch name {
	case "sage":
		model := a.Sage()
		return eval.ControllerEntrant("sage", func() rollout.Controller { return model.NewAgent(a.S.Seed) })
	case "orca", "orcav2", "deepcc":
		// Hybrids deploy their controller on top of Cubic, as trained.
		model := a.mustBaseline(name)
		return eval.HybridEntrant(name, "cubic", func() rollout.Controller { return model.NewAgent(a.S.Seed) })
	case "bc", "bc-top", "bc-top3", "bcv2", "onlinerl", "aurora", "genet",
		"indigo", "indigov2":
		model := a.mustBaseline(name)
		return eval.ControllerEntrant(name, func() rollout.Controller { return model.NewAgent(a.S.Seed) })
	default:
		return eval.SchemeEntrant(name)
	}
}

// ModelEntrant wraps an explicit model under a display name.
func (a *Artifacts) ModelEntrant(name string, m *core.Model) eval.Entrant {
	return eval.ControllerEntrant(name, func() rollout.Controller { return m.NewAgent(a.S.Seed) })
}

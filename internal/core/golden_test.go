package core

import (
	"math/rand"
	"testing"

	"sage/internal/cc"
	"sage/internal/golden"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/sim"
)

// The golden pins (testdata/*.golden) hold the deployment agent's decisions
// across commits: the per-flow decision step may be made smaller or cheaper,
// never different.

// goldenModel is an untrained default-width policy with a fitted
// normalizer: random weights spread the mixture components, so the three
// action modes disagree.
func goldenModel() *Model {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Seed: 5})
	rng := rand.New(rand.NewSource(17))
	var fit [][]float64
	for i := 0; i < 32; i++ {
		fit = append(fit, goldenState(rng))
	}
	pol.Norm = nn.FitNormalizer(fit)
	return WrapPolicy(pol, nil, gr.Config{})
}

func goldenState(rng *rand.Rand) []float64 {
	v := make([]float64, gr.StateDim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestGoldenAgentRollout pins an Agent-driven rollout in each action mode:
// the sampled cwnd series and the throughput.
func TestGoldenAgentRollout(t *testing.T) {
	model := goldenModel()
	sc := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 3 * sim.Second, Seed: 1})[0]
	for _, mode := range []string{"mean", "mode", "stochastic"} {
		agent := model.NewAgent(3)
		agent.UseMode = mode == "mode"
		agent.Stochastic = mode == "stochastic"
		res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: agent, SamplePeriod: 50 * sim.Millisecond})
		if len(res.Series) < 50 {
			t.Fatalf("%s: %d samples", mode, len(res.Series))
		}
		d := golden.NewDigest()
		d.F64(res.ThroughputBps)
		for _, s := range res.Series {
			d.F64(s.Cwnd)
		}
		golden.Check(t, "agent-rollout-"+mode, d.Sum())
	}
}

// TestGoldenAgentEmbedding pins the Fig. 16 embedding over a fixed state
// sequence (the recurrent state threads through the calls).
func TestGoldenAgentEmbedding(t *testing.T) {
	model := goldenModel()
	agent := model.NewAgent(0)
	rng := rand.New(rand.NewSource(29))
	var embs [][]float64
	for i := 0; i < 6; i++ {
		embs = append(embs, agent.LastHiddenEmbedding(goldenState(rng)))
	}
	d := golden.NewDigest()
	for _, e := range embs { // read after the last call: embeddings must not alias scratch
		if len(e) != model.Policy.Cfg.Enc {
			t.Fatalf("%d embedding values", len(e))
		}
		for _, v := range e {
			d.F64(v)
		}
	}
	golden.Check(t, "agent-embedding", d.Sum())
}

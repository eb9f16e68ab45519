package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/sim"
)

// The golden digests pin the deployment agent's decisions across commits:
// the per-flow decision step may be made smaller or cheaper, never
// different. A constant below changes only with a CHANGES.md sentence
// saying why.
var goldenAgentRollout = map[string]string{
	"mean":       "d89ff323ddc48597",
	"mode":       "886428ce997fb74f",
	"stochastic": "d57655a9bdceeffe",
}

const goldenAgentEmbedding = "f8fa010e220dc0cb"

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

func floatDigest(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
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
		vals := []float64{res.ThroughputBps}
		for _, s := range res.Series {
			vals = append(vals, s.Cwnd)
		}
		if got := floatDigest(vals); got != goldenAgentRollout[mode] {
			t.Errorf("%s: digest %s, want %s", mode, got, goldenAgentRollout[mode])
		}
	}
}

// TestGoldenAgentEmbedding pins the Fig. 16 embedding over a fixed state
// sequence (the recurrent state threads through the calls).
func TestGoldenAgentEmbedding(t *testing.T) {
	model := goldenModel()
	agent := model.NewAgent(0)
	rng := rand.New(rand.NewSource(29))
	var vals []float64
	var embs [][]float64
	for i := 0; i < 6; i++ {
		embs = append(embs, agent.LastHiddenEmbedding(goldenState(rng)))
	}
	for _, e := range embs { // read after the last call: embeddings must not alias scratch
		vals = append(vals, e...)
	}
	if len(vals) != 6*model.Policy.Cfg.Enc {
		t.Fatalf("%d embedding values", len(vals))
	}
	if got := floatDigest(vals); got != goldenAgentEmbedding {
		t.Errorf("embedding digest %s, want %s", got, goldenAgentEmbedding)
	}
}

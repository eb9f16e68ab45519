package rl

import (
	"math/rand"
	"testing"

	"sage/internal/golden"
	"sage/internal/gr"
	"sage/internal/nn"
)

// TestGoldenStepper pins the one-row decision step every B = 1 caller shares
// (core.Agent, promote.Shadow, Engine.Swap's re-prime) at the default
// architecture (testdata/stepper.golden). It digests every GMM head, and the hidden vector at the
// end, of 1 000 Steps of the default-config seeded policy with a fitted
// normalizer over seeded uniform states, the recurrent state threaded through.
func TestGoldenStepper(t *testing.T) {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	state := func() []float64 {
		v := make([]float64, gr.StateDim)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	var fit [][]float64
	for i := 0; i < 64; i++ {
		fit = append(fit, state())
	}
	pol.Norm = nn.FitNormalizer(fit)

	st := Stepper{Policy: pol, Mask: gr.MaskFull()}
	hidden := pol.InitHidden()
	var out [][]float64
	for i := 0; i < 1000; i++ {
		out = append(out, append([]float64(nil), st.Step(state(), hidden)...))
	}
	out = append(out, hidden)
	golden.Check(t, "stepper", paramDigest(out))
}

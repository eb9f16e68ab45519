package nn

import (
	"math"
	"math/rand"
	"testing"
)

// degenerateHeads enumerates broken GMM head vectors: all-NaN, all-Inf,
// and single poisoned entries in each of the three parameter groups.
func degenerateHeads(g GMM) [][]float64 {
	dim := g.HeadDim()
	mk := func(fill float64) []float64 {
		h := make([]float64, dim)
		for i := range h {
			h[i] = fill
		}
		return h
	}
	var heads [][]float64
	heads = append(heads, mk(math.NaN()), mk(math.Inf(1)), mk(math.Inf(-1)))
	for i := 0; i < 3; i++ { // one poisoned logit, mean, logstd
		h := mk(0)
		h[i*g.K] = math.NaN()
		heads = append(heads, h)
		h2 := mk(0)
		h2[i*g.K] = math.Inf(1)
		heads = append(heads, h2)
	}
	return heads
}

// TestGMMDegenerateHeadsDoNotPanic pins the failure contract the runtime
// guardian relies on: a poisoned head must surface as a (possibly
// non-finite) number, never as a panic inside the sampler.
func TestGMMDegenerateHeadsDoNotPanic(t *testing.T) {
	g := GMM{K: 3}
	rng := rand.New(rand.NewSource(1))
	for i, h := range degenerateHeads(g) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("head %d: panic %v", i, r)
				}
			}()
			_ = g.Sample(h, rng)
			_ = g.Mean(h)
			_ = g.Mode(h)
			_ = g.LogProb(h, 0.25)
		}()
	}
}

// TestPolicyForwardNaNStateDoesNotPanic feeds a NaN observation through
// the full Fig. 6 network.
func TestPolicyForwardNaNStateDoesNotPanic(t *testing.T) {
	p := NewPolicy(PolicyConfig{InDim: 6, Enc: 8, Hidden: 4, K: 2, Seed: 1})
	state := []float64{1, math.NaN(), 0, math.Inf(1), -1, 0}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic: %v", r)
		}
	}()
	head, hid := p.Forward(state, p.InitHidden())
	_ = p.GMM.Sample(head, rand.New(rand.NewSource(2)))
	_, _ = p.Forward(state, hid) // recurrent state poisoned too
}

package nn

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the hot paths of training and inference. Real-time
// deployment needs one policy forward per 20 ms action interval; training
// throughput is bounded by GRU BPTT.

func BenchmarkDenseForward256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 256, 256, rng)
	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x)
	}
}

func BenchmarkGRUStep(b *testing.B) {
	for _, h := range []int{32, 128} {
		h := h
		b.Run(benchName("hidden", h), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := NewGRU("g", 64, h, rng)
			x := make([]float64, 64)
			hid := make([]float64, h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Forward(x, hid)
			}
		})
	}
}

func BenchmarkPolicyInference(b *testing.B) {
	// The deployment-relevant number: one state → one action.
	p := NewPolicy(PolicyConfig{InDim: 69, Enc: 32, Hidden: 16, ResBlocks: 2, K: 3, Seed: 1})
	state := make([]float64, 69)
	rng := rand.New(rand.NewSource(2))
	for i := range state {
		state[i] = rng.NormFloat64()
	}
	h := p.InitHidden()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head, hn, _ := p.Forward(state, h)
		h = hn
		_ = p.GMM.Mean(head)
	}
}

func BenchmarkPolicyBPTTStep(b *testing.B) {
	// One training sample: forward+backward over an 8-step segment.
	p := NewPolicy(PolicyConfig{InDim: 69, Enc: 32, Hidden: 16, ResBlocks: 2, K: 3, Seed: 1})
	rng := rand.New(rand.NewSource(3))
	tape := &PolicyTape{}
	tape.Reset(1, 8, 69)
	copy(tape.X.Data, randVec(rng, len(tape.X.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardTape(tape)
		for t := 0; t < 8; t++ {
			p.GMM.LogProbGrad(tape.Heads.Row(t), 0.1, tape.DHeads.Row(t))
		}
		p.BackwardTape(tape)
		ZeroGrads(p)
	}
}

func BenchmarkNAFCriticQ(b *testing.B) {
	c := NewNAFCritic(NAFConfig{InDim: 69, Hidden: 48, Seed: 1})
	state := make([]float64, 69)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Q(state, 0.3)
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

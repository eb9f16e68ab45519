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
	x, out := NewMat(1, 256), NewMat(1, 256)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.BatchForward(x, out)
	}
}

func BenchmarkGRUStep(b *testing.B) {
	for _, h := range []int{32, 128} {
		h := h
		b.Run(benchName("hidden", h), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := NewGRU("g", 64, h, rng)
			x, hid, hNew := NewMat(1, 64), NewMat(1, h), NewMat(1, h)
			var scratch GRUScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.BatchForward(x, hid, hNew, &scratch)
			}
		})
	}
}

func BenchmarkPolicyInference(b *testing.B) {
	// The deployment-relevant number: one state → one action.
	p := NewPolicy(PolicyConfig{InDim: 69, Enc: 32, Hidden: 16, ResBlocks: 2, K: 3, Seed: 1})
	state, h := NewMat(1, 69), NewMat(1, 16)
	rng := rand.New(rand.NewSource(2))
	for i := range state.Data {
		state.Data[i] = rng.NormFloat64()
	}
	scratch := p.NewBatchScratch()
	wbuf := make([]float64, p.GMM.K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heads, hNew := p.BatchForward(state, h, scratch)
		copy(h.Data, hNew.Data)
		_ = p.GMM.MeanInto(heads.Data, wbuf)
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

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
	x, out, sc := NewMat(1, 256), NewMat(1, 256), &gemmScratch{}
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.batchForward(x, out, sc)
	}
}

// BenchmarkPolicyForwardSmallBatch is the deployment-relevant number: one
// decision round of b flows — a BatchForward and every row's MeanInto — on
// the production architecture (69/64/32, two residual blocks, K 5), at the
// batch sizes that miss a 16-row tile (b = 1 is every per-flow step and
// every serve_wire decision), at both kernel tiers.
func BenchmarkPolicyForwardSmallBatch(b *testing.B) {
	kernelTiers(b, func(b *testing.B) {
		for _, rows := range []int{1, 2, 5, 8, 15} {
			b.Run(benchName("b", rows), func(b *testing.B) {
				p := benchBatchPolicy()
				rng := rand.New(rand.NewSource(2))
				states, h := NewMat(rows, 69), NewMat(rows, p.Cfg.Hidden)
				copy(states.Data, randVec(rng, len(states.Data)))
				scratch := p.NewBatchScratch()
				wbuf := make([]float64, p.GMM.K)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					heads, hNew := p.BatchForward(states, h, scratch)
					copy(h.Data, hNew.Data)
					for r := 0; r < rows; r++ {
						_ = p.GMM.MeanInto(heads.Row(r), wbuf)
					}
				}
			})
		}
	})
}

// BenchmarkPolicyTileForward is one 16-row tile through BatchForward on the
// production architecture — the unit a serving pass hands a helper
// goroutine, and the one every sim_fleet tick waits on — at both kernel
// tiers.
func BenchmarkPolicyTileForward(b *testing.B) {
	kernelTiers(b, func(b *testing.B) {
		p := benchBatchPolicy()
		rng := rand.New(rand.NewSource(2))
		states, h := NewMat(TileRows, 69), NewMat(TileRows, p.Cfg.Hidden)
		copy(states.Data, randVec(rng, len(states.Data)))
		scratch := p.NewBatchScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, hNew := p.BatchForward(states, h, scratch)
			copy(h.Data, hNew.Data)
		}
	})
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

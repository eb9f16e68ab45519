package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randomizeGrads fills both modules' gradient accumulators with the same
// random values, so the backward under test starts from non-zero sums.
func randomizeGrads(rng *rand.Rand, a, b Module) {
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Grad {
			v := rng.NormFloat64()
			pa[i].Grad[j], pb[i].Grad[j] = v, v
		}
	}
}

func compareGrads(t *testing.T, got, want Module) {
	t.Helper()
	pg, pw := got.Params(), want.Params()
	for i := range pw {
		for j := range pw[i].Grad {
			if !sameBits(pg[i].Grad[j], pw[i].Grad[j]) {
				t.Fatalf("%s.Grad[%d]: tape %v, sequential %v", pw[i].Name, j, pg[i].Grad[j], pw[i].Grad[j])
			}
		}
	}
}

// TestTapeMatchesSequential holds the batched training pass to the
// sequential reference bit for bit, at both kernel tiers: heads, hidden
// states and every parameter gradient, over row counts on both sides of the
// 8-row block and the 16-row tile, odd widths, widths on both sides of the
// backward's 32-column blocks (straddle: 69 = 2·32+5, 33 = 32+1, 31), the
// ablation branches, zero and non-zero incoming gradients, and head
// gradients with exactly-zero rows and entries (the reference skips those;
// so must the kernels).
func TestTapeMatchesSequential(t *testing.T) {
	cfgs := map[string]PolicyConfig{
		"default":   {InDim: 69, Enc: 64, Hidden: 32, ResBlocks: 2, K: 5, Seed: 1},
		"odd":       {InDim: 11, Enc: 12, Hidden: 6, ResBlocks: 1, K: 2, Seed: 2},
		"straddle":  {InDim: 69, Enc: 33, Hidden: 31, ResBlocks: 1, K: 2, Seed: 6},
		"noGRU":     {InDim: 11, Enc: 12, Hidden: 6, ResBlocks: 2, K: 3, NoGRU: true, Seed: 3},
		"noEncoder": {InDim: 11, Enc: 12, Hidden: 6, ResBlocks: 2, K: 3, NoEncoder: true, Seed: 4},
		"k1":        {InDim: 12, Enc: 16, Hidden: 8, ResBlocks: 1, K: 1, Seed: 5},
	}
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 4}, {3, 3}, {2, 8}, {17, 1}, {8, 8}, {8, 14}} // B, T
	for name, cfg := range cfgs {
		for _, shape := range shapes {
			for _, dirty := range []bool{false, true} {
				B, T := shape[0], shape[1]
				t.Run(fmt.Sprintf("%s/%dx%d/dirty=%v", name, B, T, dirty), func(t *testing.T) {
					kernelTiers(t, func(t *testing.T) { checkPolicyTape(t, cfg, B, T, dirty) })
				})
			}
		}
	}
}

// checkPolicyTape is one case of TestTapeMatchesSequential.
func checkPolicyTape(t *testing.T, cfg PolicyConfig, B, T int, dirty bool) {
	rng := rand.New(rand.NewSource(int64(B*100 + T)))
	p := NewPolicy(cfg)
	var fit [][]float64
	for i := 0; i < 16; i++ {
		fit = append(fit, randVec(rng, cfg.InDim))
	}
	p.Norm = FitNormalizer(fit)
	ref := ClonePolicy(p)
	if dirty {
		randomizeGrads(rng, p, ref)
	}

	tape := &PolicyTape{}
	// A first pass of another shape: buffers must not leak between passes.
	tape.Reset(3, 2, cfg.InDim)
	copy(tape.X.Data, randVec(rng, len(tape.X.Data)))
	p.ForwardTape(tape)

	tape.Reset(B, T, cfg.InDim)
	copy(tape.X.Data, randVec(rng, len(tape.X.Data)))
	p.ForwardTape(tape)
	for r := 0; r < B*T; r++ {
		d := tape.DHeads.Row(r)
		copy(d, randVec(rng, len(d)))
		switch rng.Intn(4) {
		case 0: // a rejected transition: the whole row is ±0
			for k := range d {
				d[k] = math.Copysign(0, d[k])
			}
		case 1:
			d[rng.Intn(len(d))] = 0
		}
	}
	dHeads := append([]float64(nil), tape.DHeads.Data...)
	p.BackwardTape(tape)

	hd := tape.Heads.Cols
	for b := 0; b < B; b++ {
		h := ref.InitHidden()
		caches := make([]*policyCacheRef, T)
		for i := 0; i < T; i++ {
			r := tape.Row(b, i)
			var head []float64
			head, h, caches[i] = ref.forwardCached(tape.X.Row(r), h)
			plain, hPlain := ref.Forward(tape.X.Row(r), caches[i].gruH())
			for k := range head {
				if !sameBits(head[k], tape.Heads.Row(r)[k]) || !sameBits(head[k], plain[k]) {
					t.Fatalf("seq %d step %d head[%d]: tape %v, Forward %v, reference %v", b, i, k, tape.Heads.Row(r)[k], plain[k], head[k])
				}
			}
			for k := range h {
				if got := tape.h.Row(r + B)[k]; !sameBits(h[k], got) || !sameBits(h[k], hPlain[k]) {
					t.Fatalf("seq %d step %d hidden[%d]: tape %v, Forward %v, reference %v", b, i, k, got, hPlain[k], h[k])
				}
			}
		}
		var dh []float64
		for i := T - 1; i >= 0; i-- {
			r := tape.Row(b, i)
			dh = ref.Backward(caches[i], dHeads[r*hd:(r+1)*hd], dh)
		}
	}
	compareGrads(t, p, ref)
}

// TestTapeOrderFollowsShape runs one tape through four shapes of twelve rows
// each — (B, T) = (2, 6), (3, 4), (4, 3), then (2, 6) again — with a
// one-step BatchForward of another batch size between two of them. After
// every BackwardTape each head and each parameter gradient must be bitwise
// a fresh tape's: the canonical order a backward builds is keyed on the
// tape's shape, not on its row count.
func TestTapeOrderFollowsShape(t *testing.T) {
	cfg := PolicyConfig{InDim: 11, Enc: 12, Hidden: 6, ResBlocks: 1, K: 2, Seed: 7}
	rng := rand.New(rand.NewSource(7))
	p := NewPolicy(cfg)
	ref := ClonePolicy(p)
	reused := &PolicyTape{}
	for i, shape := range [][2]int{{2, 6}, {3, 4}, {4, 3}, {2, 6}} {
		B, T := shape[0], shape[1]
		x := randVec(rng, B*T*cfg.InDim)
		dHeads := randVec(rng, B*T*p.GMM.HeadDim())
		pass := func(m *Policy, tape *PolicyTape) {
			ZeroGrads(m)
			tape.Reset(B, T, cfg.InDim)
			copy(tape.X.Data, x)
			m.ForwardTape(tape)
			copy(tape.DHeads.Data, dHeads)
			m.BackwardTape(tape)
		}
		fresh := &PolicyTape{}
		pass(p, reused)
		pass(ref, fresh)
		for k, v := range fresh.Heads.Data {
			if !sameBits(reused.Heads.Data[k], v) {
				t.Fatalf("%dx%d: head value %d is %v on the reused tape, %v on a fresh one", B, T, k, reused.Heads.Data[k], v)
			}
		}
		compareGrads(t, p, ref)
		if i == 1 {
			states, hidden := NewMat(5, cfg.InDim), NewMat(5, cfg.Hidden)
			copy(states.Data, randVec(rng, len(states.Data)))
			p.BatchForward(states, hidden, reused)
		}
	}
}

// gruH is the hidden state the cached step started from (nil without a GRU).
func (c *policyCacheRef) gruH() []float64 {
	if c.gruC == nil {
		return nil
	}
	return c.gruC.h
}

// TestNAFTapeMatchesSequential is the same contract for the critic: the
// state-only terms, Q, the loss sum and every gradient of the batched TD
// backward equal a row-at-a-time one over the listed rows (every third row
// is left out, as a transition without a next state is), at both kernel
// tiers, with input and hidden widths on both sides of the 32-column blocks.
func TestNAFTapeMatchesSequential(t *testing.T) {
	cfgs := []NAFConfig{{InDim: 69, Hidden: 64, Seed: 1}, {InDim: 7, Hidden: 9, Seed: 2}, {InDim: 33, Hidden: 65, Seed: 3}}
	for _, cfg := range cfgs {
		for _, rows := range []int{1, 3, 4, 7, 8, 9, 16, 17, 64} {
			for _, dirty := range []bool{false, true} {
				t.Run(fmt.Sprintf("in%d/rows%d/dirty=%v", cfg.InDim, rows, dirty), func(t *testing.T) {
					kernelTiers(t, func(t *testing.T) { checkNAFTape(t, cfg, rows, dirty) })
				})
			}
		}
	}
}

// checkNAFTape is one case of TestNAFTapeMatchesSequential.
func checkNAFTape(t *testing.T, cfg NAFConfig, rows int, dirty bool) {
	rng := rand.New(rand.NewSource(int64(rows)))
	c := NewNAFCritic(cfg)
	var fit [][]float64
	for i := 0; i < 16; i++ {
		fit = append(fit, randVec(rng, cfg.InDim))
	}
	c.Norm = FitNormalizer(fit)
	ref := CloneNAF(c)
	if dirty {
		randomizeGrads(rng, c, ref)
	}
	var tape NAFTape
	tape.Reset(rows+2, cfg.InDim)
	copy(tape.X.Data, randVec(rng, len(tape.X.Data)))
	c.BatchForward(&tape)

	tape.Reset(rows, cfg.InDim)
	copy(tape.X.Data, randVec(rng, len(tape.X.Data)))
	for r := 0; r < rows; r++ {
		tape.A[r] = rng.Float64()*2 - 1
		tape.Y[r] = rng.NormFloat64() * 60 // both clamps fire
	}
	const weight = 1.0 / 128
	c.BatchForward(&tape)
	var order []int
	for r := 0; r < rows; r++ {
		if rows < 3 || r%3 != 2 {
			order = append(order, r)
		}
	}
	loss := c.TDBackward(&tape, order, weight)

	want := 0.0
	for _, r := range order {
		ca := ref.forwardCached(tape.X.Row(r), tape.A[r])
		if !sameBits(ca.v, tape.V[r]) || !sameBits(ca.m, tape.M[r]) || !sameBits(ca.p, tape.P[r]) {
			t.Fatalf("row %d: tape (v,m,p) = (%v,%v,%v), reference (%v,%v,%v)", r, tape.V[r], tape.M[r], tape.P[r], ca.v, ca.m, ca.p)
		}
		if q := ref.Q(tape.X.Row(r), tape.A[r]); !sameBits(ca.q, tape.Q(r, tape.A[r])) || !sameBits(ca.q, q) {
			t.Fatalf("row %d: tape Q %v, Q %v, reference %v", r, tape.Q(r, tape.A[r]), q, ca.q)
		}
		want += ref.tdBackwardRef(tape.X.Row(r), tape.A[r], tape.Y[r], weight)
	}
	if !sameBits(loss, want) {
		t.Fatalf("loss sum: tape %v, sequential %v", loss, want)
	}
	compareGrads(t, c, ref)
}

// TestGMMGradAndSampleMatchReference pins the allocation-free head
// functions to the forms they replaced.
func TestGMMGradAndSampleMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, K := range []int{1, 2, 5, 9} {
		g := GMM{K: K}
		dp := make([]float64, g.HeadDim())
		for trial := 0; trial < 50; trial++ {
			p := randVec(rng, g.HeadDim())
			if trial%5 == 0 {
				p[2*K] = 3 // log-std beyond the clamp: its gradient is cut
			}
			a := rng.Float64()*2 - 1
			wantLogp, want := g.logProbGradRef(p, a)
			if logp := g.LogProbGrad(p, a, dp); !sameBits(logp, wantLogp) {
				t.Fatalf("K=%d: logp %v, reference %v", K, logp, wantLogp)
			}
			for k := range want {
				if !sameBits(dp[k], want[k]) {
					t.Fatalf("K=%d: dp[%d] = %v, reference %v", K, k, dp[k], want[k])
				}
			}
			// Sample is SampleWith fed from the stream, in stream order.
			seed := rng.Int63()
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			u := r2.Float64()
			if got, want := g.Sample(p, r1), g.SampleWith(p, u, r2.NormFloat64()); !sameBits(got, want) {
				t.Fatalf("K=%d: Sample %v, SampleWith %v", K, got, want)
			}
		}
	}
}

// TestTapeNoAllocs: after one pass has sized the buffers, a forward and
// backward of the same shape allocate nothing.
func TestTapeNoAllocs(t *testing.T) {
	p := NewPolicy(PolicyConfig{InDim: 30, Enc: 16, Hidden: 12, ResBlocks: 2, K: 3, Seed: 21})
	c := NewNAFCritic(NAFConfig{InDim: 30, Hidden: 16, Seed: 21})
	rng := rand.New(rand.NewSource(6))
	tape, ntape := &PolicyTape{}, &NAFTape{}
	order := make([]int, 20)
	for r := range order {
		order[r] = r
	}
	step := func() {
		tape.Reset(4, 5, 30)
		copy(tape.X.Data, randVecInto(rng, tape.X.Data))
		p.ForwardTape(tape)
		for r := 0; r < 20; r++ {
			p.GMM.LogProbGrad(tape.Heads.Row(r), 0.1, tape.DHeads.Row(r))
			_ = p.GMM.SampleWith(tape.Heads.Row(r), 0.4, 0.2)
		}
		p.BackwardTape(tape)
		ntape.Reset(20, 30)
		copy(ntape.X.Data, tape.X.Data)
		c.BatchForward(ntape)
		c.TDBackward(ntape, order, 0.05)
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs > 0 {
		t.Fatalf("tape step allocates %.1f objects/op after warm-up, want 0", allocs)
	}
}

func randVecInto(rng *rand.Rand, x []float64) []float64 {
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// sameOrNaN is sameBits, except that any two NaNs match: when both operands
// of a product or sum are NaN, which one's payload survives depends on the
// operand order the compiler picks for a commutative operation, and Go pins
// neither.
func sameOrNaN(a, b float64) bool { return sameBits(a, b) || (math.IsNaN(a) && math.IsNaN(b)) }

// canonicalOrderOf is a PolicyTape's canonical order for b sequences of
// steps timesteps.
func canonicalOrderOf(b, steps int) []int {
	t := PolicyTape{B: b, T: steps}
	return t.canonicalOrder()
}

// backwardGuard is the number of guard words after every buffer the
// backward's products write: a store past a row's or a matrix's end shows
// as a changed guard word.
const backwardGuard = 5

// guarded returns a slice of n values from next with backwardGuard more
// values after its end, in its backing array.
func guarded(n int, next func() float64) []float64 {
	buf := make([]float64, n+backwardGuard)
	for i := range buf {
		buf[i] = next()
	}
	return buf[:n]
}

// sameBuffers holds got to want bit for bit, with any two NaNs matching,
// over len(want) values and then exactly over the guard words after them.
func sameBuffers(t testing.TB, what string, got, want []float64) {
	t.Helper()
	g, w := got[:len(got)+backwardGuard], want[:len(want)+backwardGuard]
	for k := range w {
		if !sameOrNaN(g[k], w[k]) || (k >= len(want) && !sameBits(g[k], w[k])) {
			t.Fatalf("%s element %d (of %d): %v (%#x), scalar chain %v (%#x)", what, k, len(want), g[k], math.Float64bits(g[k]), w[k], math.Float64bits(w[k]))
		}
	}
}

// checkGradAcc runs gradAcc over the rows of order and holds W.Grad and
// bias.Grad (bias may be nil) to the scalar chain: per output o, for each
// row r in order, dY[r][o] skipped if ±0, else added to bias.Grad[o] and
// dY[r][o]·x[r][j] to W.Grad[o][j]. The gradients must have guard words
// after them (guarded).
func checkGradAcc(t testing.TB, w, bias *Param, dY, x *Mat, order []int) {
	t.Helper()
	cols, outs := w.Cols, w.Rows
	want := append([]float64(nil), w.Grad[:len(w.Grad)+backwardGuard]...)[:len(w.Grad)]
	var wantB []float64
	if bias != nil {
		wantB = append([]float64(nil), bias.Grad[:len(bias.Grad)+backwardGuard]...)[:len(bias.Grad)]
	}
	for o := 0; o < outs; o++ {
		for _, r := range order {
			g := dY.Data[r*outs+o]
			if g == 0 {
				continue
			}
			if bias != nil {
				wantB[o] += g
			}
			for j := 0; j < cols; j++ {
				want[o*cols+j] += g * x.Data[r*x.Cols+j]
			}
		}
	}
	gradAcc(w, bias, dY, x, order, &gemmScratch{})
	sameBuffers(t, fmt.Sprintf("outs=%d cols=%d rows=%d W.Grad", outs, cols, len(order)), w.Grad, want)
	if bias != nil {
		sameBuffers(t, fmt.Sprintf("outs=%d cols=%d rows=%d bias.Grad", outs, cols, len(order)), bias.Grad, wantB)
	}
}

// checkBackMul runs backMulAcc and holds dX to the scalar chain: per row r
// and output o ascending, dY[r][o] skipped if ±0, else dY[r][o]·W[o][j]
// added to dX[r][j]. dX must have guard words after it (guarded).
func checkBackMul(t testing.TB, w *Param, dY, dX *Mat) {
	t.Helper()
	cols, outs := w.Cols, w.Rows
	want := append([]float64(nil), dX.Data[:len(dX.Data)+backwardGuard]...)[:len(dX.Data)]
	for r := 0; r < dY.Rows; r++ {
		for o := 0; o < outs; o++ {
			g := dY.Data[r*outs+o]
			if g == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				want[r*cols+j] += g * w.Data[o*cols+j]
			}
		}
	}
	backMulAcc(w, dY, dX, &gemmScratch{})
	sameBuffers(t, fmt.Sprintf("outs=%d cols=%d rows=%d dX", outs, cols, dY.Rows), dX.Data, want)
}

// backwardValues returns a source of operands for the backward's products:
// mostly normal values, one in eight a special — ±0, ±Inf, NaN of either
// sign, a subnormal.
func backwardValues(rng *rand.Rand) func() float64 {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), math.SmallestNonzeroFloat64, -0x1p-1030}
	return func() float64 {
		if rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
}

// zeroSome gives dY the zeros the backward meets: whole rows of ±0 (a
// rejected transition, and every row below it) and single ±0 entries.
func zeroSome(rng *rand.Rand, dY *Mat) {
	for r := 0; r < dY.Rows; r++ {
		d := dY.Row(r)
		switch rng.Intn(4) {
		case 0:
			for k := range d {
				d[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		case 1:
			d[rng.Intn(len(d))] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	}
}

// backwardShapes are the (B, T) tape shapes the product tests take their
// canonical orders from: 1 to 40 rows, one sequence and many, one step and
// many.
var backwardShapes = [][2]int{{1, 1}, {2, 1}, {1, 3}, {3, 2}, {1, 7}, {3, 4}, {2, 8}, {5, 5}, {13, 3}, {8, 5}, {40, 1}}

// TestGradAccMatchesScalarChain holds the weight-gradient product to the
// scalar chain bit for bit, at both kernel tiers, over every width 1–70
// (blocks of eight columns, a block of four, one to three masked columns)
// and 1–20 outputs (lanes past the last output unused), with the rows of
// three tape shapes per case in canonical order — 1 to 40 rows across the
// sweep — ±0 rows and ±0 entries in dY, ±Inf and NaN in x and dY, dirty
// gradients (−0 among them), with and without a bias, and a subset order
// that leaves rows out (the NAF critic's). Nothing past W.Grad or
// bias.Grad may be written.
func TestGradAccMatchesScalarChain(t *testing.T) {
	kernelTiers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(50))
		next := backwardValues(rng)
		for cols := 1; cols <= 70; cols++ {
			for outs := 1; outs <= 20; outs++ {
				for k := 0; k < 3; k++ {
					shape := backwardShapes[(cols*3+outs+k*5)%len(backwardShapes)]
					B, T := shape[0], shape[1]
					rows := B * T
					w := NewParam("w", outs, cols)
					w.Grad = guarded(outs*cols, next)
					var bias *Param
					if k != 1 {
						bias = NewParam("b", outs, 1)
						bias.Grad = guarded(outs, next)
					}
					x := &Mat{Rows: rows, Cols: cols, Data: guarded(rows*cols, next)}
					dY := &Mat{Rows: rows, Cols: outs, Data: guarded(rows*outs, next)}
					zeroSome(rng, dY)
					order := canonicalOrderOf(B, T)
					if k == 2 {
						var sub []int
						for i, r := range order {
							if i%3 != 2 {
								sub = append(sub, r)
							}
						}
						order = sub
					}
					checkGradAcc(t, w, bias, dY, x, order)
				}
			}
		}
	})
}

// TestBackMulMatchesScalarChain holds the input-gradient product to the
// scalar chain bit for bit, at both kernel tiers, over every width 1–70 and
// 1–20 outputs, 1–40 rows (groups of four rows, lanes past the last row
// unused), ±0 rows and ±0 entries in dY, ±Inf and NaN in W and dY, and a
// dirty dX with −0 among its values. Nothing past dX may be written.
func TestBackMulMatchesScalarChain(t *testing.T) {
	kernelTiers(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(51))
		next := backwardValues(rng)
		for cols := 1; cols <= 70; cols++ {
			for outs := 1; outs <= 20; outs++ {
				for k := 0; k < 2; k++ {
					rows := 1 + (cols*7+outs*3+k*17)%40
					w := NewParam("w", outs, cols)
					w.Data = guarded(outs*cols, next)
					dY := &Mat{Rows: rows, Cols: outs, Data: guarded(rows*outs, next)}
					zeroSome(rng, dY)
					dX := &Mat{Rows: rows, Cols: cols, Data: guarded(rows*cols, next)}
					checkBackMul(t, w, dY, dX)
				}
			}
		}
	})
}

// FuzzBackwardKernels holds both backward products to their scalar chains
// on arbitrary float64 bit patterns, at the detected kernel tier: the input
// picks 1–20 outputs, 1–70 columns, a tape of 1–8 sequences of 1–5 steps
// (its canonical order), bias or none, and its bytes, repeated as far as
// needed, are the weights, inputs, output gradients and the dirty
// gradients they add to. Guard words after every written buffer catch a
// store past its end.
func FuzzBackwardKernels(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint8(1), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(15), uint8(63), uint8(0x27), uint8(0), []byte{0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(0), uint8(68), uint8(0x74), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xe0, 0xbf})
	f.Fuzz(func(t *testing.T, outs, cols, shape, mode uint8, data []byte) {
		nOut, nCol := 1+int(outs)%20, 1+int(cols)%70
		B, T := 1+int(shape&7), 1+int(shape>>3)%5
		k := 0
		next := func() float64 {
			var b [8]byte
			for i := range b {
				if len(data) > 0 {
					b[i] = data[(8*k+i)%len(data)]
				}
			}
			k++
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		rows := B * T
		w := NewParam("w", nOut, nCol)
		w.Data = guarded(nOut*nCol, next)
		w.Grad = guarded(nOut*nCol, next)
		var bias *Param
		if mode&1 != 0 {
			bias = NewParam("b", nOut, 1)
			bias.Grad = guarded(nOut, next)
		}
		x := &Mat{Rows: rows, Cols: nCol, Data: guarded(rows*nCol, next)}
		dY := &Mat{Rows: rows, Cols: nOut, Data: guarded(rows*nOut, next)}
		dX := &Mat{Rows: rows, Cols: nCol, Data: guarded(rows*nCol, next)}
		checkGradAcc(t, w, bias, dY, x, canonicalOrderOf(B, T))
		checkBackMul(t, w, dY, dX)
	})
}

// TestLeakyReLUSpecialBits pins the branch-free activation, forward and
// backward, to the predicates it replaced — forward v where v >= 0 else α·v,
// backward d scaled by α where !(v >= 0) — bit for bit on ±0, ±Inf and NaN
// of either sign (a sign-bit select would send +NaN down the v >= 0 side).
func TestLeakyReLUSpecialBits(t *testing.T) {
	const d = 3.0
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), 2.5, -2.5, math.SmallestNonzeroFloat64, -math.MaxFloat64} {
		wantY, wantD := v, d
		if !(v >= 0) {
			wantY, wantD = lreluAlpha*v, lreluAlpha*d
		}
		y := []float64{v}
		leakyReLUTo(y, y, lreluAlpha)
		g := []float64{d}
		leakyReLUBack([]float64{v}, g, lreluAlpha)
		if !sameBits(y[0], wantY) || !sameBits(g[0], wantD) {
			t.Errorf("v=%v (%#x): forward %#x, want %#x; backward %v, want %v", v, math.Float64bits(v), math.Float64bits(y[0]), math.Float64bits(wantY), g[0], wantD)
		}
		if math.IsNaN(v) && !sameBits(y[0], v) {
			t.Errorf("forward(%#x) = %#x, want the NaN itself", math.Float64bits(v), math.Float64bits(y[0]))
		}
	}
	// The same values at every position of a slice, four lanes wide with
	// AVX2 and in the scalar tail, into another slice and in place.
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), 2.5, -2.5, math.SmallestNonzeroFloat64, -math.MaxFloat64, -0x1p-1030}
	kernelTiers(t, func(t *testing.T) {
		for shift := range vals {
			in := append(append([]float64(nil), vals[shift:]...), vals[:shift]...)
			src, dst := append([]float64(nil), in...), make([]float64, len(in))
			leakyReLUTo(dst, src, lreluAlpha)
			leakyReLUTo(src, src, lreluAlpha)
			for i, v := range in {
				want := v * lreluSlope(v, math.Float64bits(1), math.Float64bits(lreluAlpha))
				if !sameBits(dst[i], want) || !sameBits(src[i], want) {
					t.Fatalf("shift %d, element %d: %#x (in place %#x), want %#x", shift, i, math.Float64bits(dst[i]), math.Float64bits(src[i]), math.Float64bits(want))
				}
			}
		}
	})
}

// TestLayerNormTapeMatchesScalar holds the batched LayerNorm — four rows'
// statistics side by side, the normalize step four columns at a time — to
// the scalar oracle's output, normalized rows and standard deviation, bit
// for bit at both kernel tiers, over widths 1–13 (each width mod 4) and
// 1–9 rows (each row count mod 4), with ±0, ±Inf, NaN and subnormals among
// the inputs, gains and biases.
func TestLayerNormTapeMatchesScalar(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, -0x1p-1030, 1e300}
	rng := rand.New(rand.NewSource(49))
	fill := func(v []float64) {
		for i := range v {
			if rng.Intn(10) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
	}
	kernelTiers(t, func(t *testing.T) {
		for N := 1; N <= 13; N++ {
			for rows := 1; rows <= 9; rows++ {
				ln := NewLayerNorm("ln", N)
				fill(ln.G.Data)
				fill(ln.B.Data)
				x := NewMat(rows, N)
				fill(x.Data)
				var out Mat
				var lt lnTape
				ln.forwardTape(x, &out, &lt)
				for r := 0; r < rows; r++ {
					y, c := ln.forwardCached(x.Row(r))
					if !sameOrNaN(lt.std.Data[r], c.std) {
						t.Fatalf("N=%d rows=%d row %d: std %v, oracle %v", N, rows, r, lt.std.Data[r], c.std)
					}
					for i := range y {
						if !sameOrNaN(out.Row(r)[i], y[i]) || !sameOrNaN(lt.xhat.Row(r)[i], c.xhat[i]) {
							t.Fatalf("N=%d rows=%d row %d col %d: out %v xhat %v, oracle %v and %v", N, rows, r, i, out.Row(r)[i], lt.xhat.Row(r)[i], y[i], c.xhat[i])
						}
					}
				}
			}
		}
	})
}

// TestForwardTapeFromMatchesForwardTape: a pass trimmed to the steps from
// onward leaves those heads bitwise equal to the whole pass's and every
// earlier head NaN, at both kernel tiers, for the default shape and the
// ablations, at batch sizes on both sides of the 16-row tile and at the
// learner's target-pass length (SeqLen 8 + NStep 5). A whole pass on the
// same tape afterwards — the learner runs its online policy there next — is
// again the whole pass.
func TestForwardTapeFromMatchesForwardTape(t *testing.T) {
	cfgs := map[string]PolicyConfig{
		"default":   {InDim: 69, Enc: 64, Hidden: 32, ResBlocks: 2, K: 5, Seed: 1},
		"noGRU":     {InDim: 11, Enc: 12, Hidden: 6, ResBlocks: 2, K: 3, NoGRU: true, Seed: 3},
		"noEncoder": {InDim: 11, Enc: 12, Hidden: 6, ResBlocks: 2, K: 3, NoEncoder: true, Seed: 4},
		"k1":        {InDim: 12, Enc: 16, Hidden: 8, ResBlocks: 1, K: 1, Seed: 5},
	}
	const T = 13
	for name, cfg := range cfgs {
		for _, B := range []int{1, 8, 16, 17} {
			t.Run(fmt.Sprintf("%s/B=%d", name, B), func(t *testing.T) {
				kernelTiers(t, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(B)))
					p := NewPolicy(cfg)
					var fit [][]float64
					for i := 0; i < 16; i++ {
						fit = append(fit, randVec(rng, cfg.InDim))
					}
					p.Norm = FitNormalizer(fit)
					full, trim := &PolicyTape{}, &PolicyTape{}
					full.Reset(B, T, cfg.InDim)
					copy(full.X.Data, randVec(rng, len(full.X.Data)))
					p.ForwardTape(full)
					want := append([]float64(nil), full.Heads.Data...)
					hd := full.Heads.Cols
					for _, from := range []int{0, 1, 5, T - 1, T} {
						trim.Reset(B, T, cfg.InDim)
						copy(trim.X.Data, full.X.Data)
						p.ForwardTapeFrom(trim, from)
						for k, v := range trim.Heads.Data {
							if k < from*B*hd && !math.IsNaN(v) {
								t.Fatalf("from %d: row %d (step %d) head %v, want NaN", from, k/hd, k/hd/B, v)
							}
							if k >= from*B*hd && !sameBits(v, want[k]) {
								t.Fatalf("from %d: row %d (step %d) head %v, whole pass %v", from, k/hd, k/hd/B, v, want[k])
							}
						}
					}
					p.ForwardTape(trim)
					for k, v := range trim.Heads.Data {
						if !sameBits(v, want[k]) {
							t.Fatalf("whole pass after a trimmed one: row %d head %v, want %v", k/hd, v, want[k])
						}
					}
				})
			})
		}
	}
}

// TestLayerNormBackwardMatchesScalar holds the batched LayerNorm backward —
// its per-element lines four columns at a time, the sums of four rows side
// by side — to the scalar oracle's Backward run row by row in the same
// order, bit for bit at both kernel tiers: the gain and bias gradients
// (dirty, −0 among them) and every row's input gradient, over widths 1–70
// (each width mod 4), 1–11 rows (each row count mod 4) in a shuffled
// order, with ±0, ±Inf, NaN and subnormals among the inputs, gains and
// output gradients.
func TestLayerNormBackwardMatchesScalar(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, -0x1p-1030, 1e300}
	rng := rand.New(rand.NewSource(52))
	fill := func(v []float64) {
		for i := range v {
			if rng.Intn(10) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
	}
	kernelTiers(t, func(t *testing.T) {
		for N := 1; N <= 70; N++ {
			rows := 1 + (N*5)%11
			ln, ref := NewLayerNorm("ln", N), NewLayerNorm("ln", N)
			fill(ln.G.Data)
			fill(ln.B.Data)
			fill(ln.G.Grad)
			fill(ln.B.Grad)
			copy(ref.G.Data, ln.G.Data)
			copy(ref.B.Data, ln.B.Data)
			copy(ref.G.Grad, ln.G.Grad)
			copy(ref.B.Grad, ln.B.Grad)
			x := NewMat(rows, N)
			fill(x.Data)
			var out Mat
			var lt lnTape
			ln.forwardTape(x, &out, &lt)
			d := NewMat(rows, N)
			fill(d.Data)
			dy := append([]float64(nil), d.Data...)
			order := rng.Perm(rows)
			ln.backwardTape(&lt, d, order)
			for _, r := range order {
				_, c := ref.forwardCached(x.Row(r))
				want := ref.Backward(c, dy[r*N:(r+1)*N])
				for i, w := range want {
					if got := d.Row(r)[i]; !sameOrNaN(got, w) {
						t.Fatalf("N=%d rows=%d row %d col %d: dx %v, oracle %v", N, rows, r, i, got, w)
					}
				}
			}
			for i := 0; i < N; i++ {
				if !sameOrNaN(ln.G.Grad[i], ref.G.Grad[i]) || !sameOrNaN(ln.B.Grad[i], ref.B.Grad[i]) {
					t.Fatalf("N=%d rows=%d col %d: gain/bias grad %v/%v, oracle %v/%v", N, rows, i, ln.G.Grad[i], ln.B.Grad[i], ref.G.Grad[i], ref.B.Grad[i])
				}
			}
		}
	})
}

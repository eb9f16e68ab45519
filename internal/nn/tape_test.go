package nn

import (
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

// TestAccTermsMatchesScalarChain holds the row-blocked accumulation to the
// plain scalar chain — acc[j] += s·row[j], terms in list order — at both
// kernel tiers, over every width from 1 to 70 (no, one and two 32-column
// blocks, with and without leftover columns) and lists of 0, 1 and 17
// terms, with ±0, ±Inf and NaN of either sign among the scales, the rows and
// the accumulators. Nothing past len(acc) may be written.
func TestAccTermsMatchesScalarChain(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}
	rng := rand.New(rand.NewSource(25))
	value := func() float64 {
		if rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	kernelTiers(t, func(t *testing.T) {
		for n := 1; n <= 70; n++ {
			for _, L := range []int{0, 1, 17} {
				stride := n + 3 // rows start off any block boundary
				base := make([]float64, (L+1)*stride)
				for i := range base {
					base[i] = value()
				}
				terms := make([]axpyTerm, L)
				for i := range terms {
					terms[i] = axpyTerm{value(), rng.Intn(L+1) * stride}
				}
				const guard = 4
				got := make([]float64, n+guard)
				for i := range got {
					got[i] = value()
				}
				want := append([]float64(nil), got...)
				accTerms(got[:n], base, terms)
				for _, tm := range terms {
					for j := 0; j < n; j++ {
						want[j] += tm.s * base[tm.off+j]
					}
				}
				for j := range got {
					if !sameOrNaN(got[j], want[j]) || (j >= n && !sameBits(got[j], want[j])) {
						t.Fatalf("n=%d L=%d acc[%d]: %v (%#x), scalar chain %v (%#x)", n, L, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
					}
				}
			}
		}
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

package nn

import "math"

// The Fig. 6 graph and its backward. A tape holds the activations of one
// forward pass over a whole minibatch — every sequence × timestep is a row —
// so the dense layers run as a few large GEMMs through the kernels of
// batch.go instead of one dot product at a time, and nothing is allocated
// after the first step. The network is walked in one place, forward:
// ForwardTapeFrom runs it over a minibatch from a zero hidden state, and
// inference (BatchForward, policy_batch.go) over one step of a serving batch
// from the flows' own hidden states.
//
// The backward pass keeps one contract: gradients are bitwise what a
// sequence-at-a-time, step-at-a-time backward would accumulate. Per row,
// every kernel performs the sequential form's operations in the sequential
// form's order (including its skip of exactly-zero output gradients).
// Across rows, floating-point addition does not commute, so every parameter
// gradient is accumulated in one canonical row order that the tape owns:
// each element of W.Grad receives its rows' contributions one after another
// in that order, whatever order the rows' dY were computed in. Changing the
// canonical order — or the order of operations within a row — changes
// trained weights in the last bit, and is a golden-digest change.

// rowsView returns rows [lo, hi) of m as a matrix sharing m's storage.
func (m *Mat) rowsView(lo, hi int) Mat {
	return Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// laneStep is one step of the backward's lane kernel: the element offsets,
// from each lane's base, of the step's scales and of its vector, and
// whether none of its scales is ±0.
type laneStep struct {
	g, v  int
	dense bool
}

// laneBlock names the four lanes of one axpyLanes call: each lane's
// accumulator row, the base of its scales and, for a weight gradient, its
// bias gradient.
type laneBlock struct {
	out, g, bias [4]*float64
}

// Both products of a dense layer's backward are the same loop: rows of
// accumulators, each taking one scaled vector per step, in the order the
// steps come in, with the steps whose scale is exactly zero skipped. For
// the weight gradient the rows are four outputs' rows of W.Grad, the steps
// the tape's rows in canonical order and the vectors the layer's input
// rows; for the input gradient the rows are four rows of dX, the steps the
// outputs in ascending order and the vectors the rows of W. With AVX2
// axpyLanes runs four rows at once, each scale read straight from dY. The
// rows of dY are classified first (rowKinds): a row that is ±0 throughout
// contributes nothing to either product and is left out, and a step all of
// whose scales come from rows without a ±0 skips the kernel's zero tests.
// Without AVX2 the plain scalar chains below run, in the same order.

// Row kinds of a matrix of output gradients: a row holds an element that is
// not ±0, or one that is.
const (
	rowNonzero = 1 << iota
	rowHasZero
)

// kindsOf classifies every row of dY (rowNonzero, rowHasZero) into the
// scratch's kind list and returns it.
func (s *gemmScratch) kindsOf(dY *Mat) []uint8 {
	if cap(s.kinds) < dY.Rows {
		s.kinds = make([]uint8, dY.Rows, 2*dY.Rows)
	}
	kinds := s.kinds[:dY.Rows]
	if dY.Rows == 0 {
		return kinds
	}
	if useAVX2 && dY.Cols >= 4 {
		_ = dY.Data[dY.Rows*dY.Cols-1] // rowKinds reads these unchecked
		rowKinds(&kinds[0], &dY.Data[0], dY.Rows, dY.Cols)
		return kinds
	}
	for r := range kinds {
		k := uint8(0)
		for _, v := range dY.Row(r) {
			if v == 0 {
				k |= rowHasZero
			} else {
				k |= rowNonzero
			}
		}
		kinds[r] = k
	}
	return kinds
}

// gradAcc accumulates a dense layer's parameter gradients over a batch:
// w.Grad[o][j] += dY[r][o]·x[r][j] and, when bias is non-nil,
// bias.Grad[o] += dY[r][o], visiting rows r in the given order and
// skipping every dY[r][o] that is ±0. Each gradient element is its own
// chain of additions in that order.
func gradAcc(w, bias *Param, dY, x *Mat, order []int, sc *gemmScratch) {
	cols, outs := w.Cols, w.Rows
	kinds, steps := sc.kindsOf(dY), sc.steps[:0]
	for _, r := range order {
		if k := kinds[r]; k&rowNonzero != 0 {
			steps = append(steps, laneStep{r * outs, r * x.Cols, k&rowHasZero == 0})
		}
	}
	sc.steps = steps
	if len(steps) == 0 {
		return
	}
	if !useAVX2 || cols == 0 {
		for o := 0; o < outs; o++ {
			grow := w.Grad[o*cols : (o+1)*cols]
			for _, st := range steps {
				g := dY.Data[st.g+o]
				if g == 0 {
					continue
				}
				if bias != nil {
					bias.Grad[o] += g
				}
				for j, xj := range x.Data[st.v : st.v+cols] {
					grow[j] += float64(g * xj)
				}
			}
		}
		return
	}
	for _, st := range steps {
		_ = x.Data[st.v+cols-1] // axpyLanes reads the rows unchecked
	}
	_ = w.Grad[outs*cols-1]
	if bias != nil {
		_ = bias.Grad[outs-1]
	}
	spare := sc.spare(cols)
	var lb laneBlock
	for o := 0; o < outs; o += 4 {
		for k := range 4 {
			lb.out[k], lb.g[k], lb.bias[k] = spare, lb.g[0], spare // a lane past the last output
			if o+k < outs {
				lb.out[k], lb.g[k] = &w.Grad[(o+k)*cols], &dY.Data[o+k]
				if bias != nil {
					lb.bias[k] = &bias.Grad[o+k]
				}
			}
		}
		axpyLanes(&lb, &x.Data[0], &steps[0], len(steps), cols, bias != nil)
	}
}

// backMulAcc accumulates the input gradient of a dense layer for every row:
// dX[r][j] += Σ_o w[o][j]·dY[r][o], o ascending, dY[r][o] of ±0 skipped.
func backMulAcc(w *Param, dY, dX *Mat, sc *gemmScratch) {
	cols, outs := w.Cols, w.Rows
	// The rows with a non-zero dY, those without a ±0 first: their groups
	// of four run the kernel's dense steps.
	kinds, rows := sc.kindsOf(dY), sc.rows[:0]
	for r, k := range kinds {
		if k == rowNonzero {
			rows = append(rows, r)
		}
	}
	dense := len(rows)
	for r, k := range kinds {
		if k == rowNonzero|rowHasZero {
			rows = append(rows, r)
		}
	}
	sc.rows = rows
	if len(rows) == 0 {
		return
	}
	if !useAVX2 || cols == 0 {
		for _, r := range rows {
			dr := dX.Data[r*cols : (r+1)*cols]
			for o, g := range dY.Data[r*outs : (r+1)*outs] {
				if g == 0 {
					continue
				}
				for j, wj := range w.Data[o*cols : (o+1)*cols] {
					dr[j] += float64(g * wj)
				}
			}
		}
		return
	}
	_ = dX.Data[(dY.Rows-1)*cols+cols-1]
	_ = w.Data[outs*cols-1]
	// The outputs in ascending order, as tested steps and as dense ones.
	steps := sc.steps[:0]
	for _, d := range [2]bool{false, true} {
		for o := 0; o < outs; o++ {
			steps = append(steps, laneStep{o, o * cols, d})
		}
	}
	sc.steps = steps
	spare := sc.spare(cols)
	var lb laneBlock
	for i := 0; i < len(rows); i += 4 {
		for k := range 4 {
			lb.out[k], lb.g[k] = spare, lb.g[0] // a lane past the last row
			if i+k < len(rows) {
				r := rows[i+k]
				lb.out[k], lb.g[k] = &dX.Data[r*cols], &dY.Data[r*outs]
			}
		}
		st := &steps[0]
		if i+4 <= dense {
			st = &steps[outs]
		}
		axpyLanes(&lb, &w.Data[0], st, outs, cols, false)
	}
}

// lreluSlope is leaky ReLU's slope at v: 1 where v >= 0, alpha elsewhere
// (NaN included). The two are picked as bit patterns so the compiler emits a
// conditional move: activation signs are coin flips to a branch predictor.
// Multiplying by the slope 1 returns v bit for bit.
func lreluSlope(v float64, one, alpha uint64) float64 {
	s := alpha
	if v >= 0 {
		s = one
	}
	return math.Float64frombits(s)
}

// leakyReLUTo writes max(x, alpha·x) of src into dst (which may be src),
// four elements at a time with AVX2.
func leakyReLUTo(dst, src []float64, alpha float64) {
	one, a := math.Float64bits(1), math.Float64bits(alpha)
	dst = dst[:len(src)]
	i := 0
	if useAVX2 && len(src) >= 4 {
		i = len(src) &^ 3
		lreluGroups(&dst[0], &src[0], i/4, alpha)
	}
	for ; i < len(src); i++ {
		v := src[i]
		dst[i] = v * lreluSlope(v, one, a)
	}
}

// leakyReLUBack turns d (gradient wrt the activation's output) into the
// gradient wrt its input pre, in place, four elements at a time with AVX2.
func leakyReLUBack(pre, d []float64, alpha float64) {
	one, a := math.Float64bits(1), math.Float64bits(alpha)
	d = d[:len(pre)]
	i := 0
	if useAVX2 && len(pre) >= 4 {
		i = len(pre) &^ 3
		lreluBackGroups(&d[0], &pre[0], i/4, alpha)
	}
	for ; i < len(pre); i++ {
		d[i] *= lreluSlope(pre[i], one, a)
	}
}

// tanhBack is leakyReLUBack for tanh, given the activation's output y.
func tanhBack(y, d []float64) {
	for i, v := range y {
		d[i] = d[i] * (1 - float64(v*v))
	}
}

// lnTape is what LayerNorm's backward needs from its forward: the
// normalized rows and each row's standard deviation (one column).
type lnTape struct {
	xhat, std Mat
}

// forwardTape normalizes every row of x into out, keeping the statistics.
// Four rows run side by side — their mean chains, then their variance
// chains, each in column order — and with AVX2 the normalize-and-affine
// step runs four columns at a time (lnNormRows); the rows past the last
// four, and the columns past the last multiple of 4, run alone.
func (ln *LayerNorm) forwardTape(x, out *Mat, t *lnTape) {
	N := ln.N
	out.Reset(x.Rows, N)
	t.xhat.Reset(x.Rows, N)
	t.std.Reset(x.Rows, 1)
	n := float64(N)
	var mu [4]float64
	r := 0
	for ; r+4 <= x.Rows; r += 4 {
		x0, x1, x2, x3 := x.Row(r)[:N], x.Row(r + 1)[:N], x.Row(r + 2)[:N], x.Row(r + 3)[:N]
		m0, m1, m2, m3 := 0.0, 0.0, 0.0, 0.0
		for j, v := range x0 {
			m0 += v
			m1 += x1[j]
			m2 += x2[j]
			m3 += x3[j]
		}
		m0, m1, m2, m3 = m0/n, m1/n, m2/n, m3/n
		v0, v1, v2, v3 := 0.0, 0.0, 0.0, 0.0
		for j, v := range x0 {
			d0, d1, d2, d3 := v-m0, x1[j]-m1, x2[j]-m2, x3[j]-m3
			v0 += float64(d0 * d0)
			v1 += float64(d1 * d1)
			v2 += float64(d2 * d2)
			v3 += float64(d3 * d3)
		}
		std := t.std.Data[r : r+4]
		std[0] = math.Sqrt(v0/n + ln.Eps)
		std[1] = math.Sqrt(v1/n + ln.Eps)
		std[2] = math.Sqrt(v2/n + ln.Eps)
		std[3] = math.Sqrt(v3/n + ln.Eps)
		mu = [4]float64{m0, m1, m2, m3}
		ln.normalize(x, out, t, r, r+4, mu[:])
	}
	for ; r < x.Rows; r++ {
		xr := x.Row(r)[:N]
		m := 0.0
		for _, v := range xr {
			m += v
		}
		m /= n
		varr := 0.0
		for _, v := range xr {
			d := v - m
			varr += float64(d * d)
		}
		t.std.Data[r] = math.Sqrt(varr/n + ln.Eps)
		mu[0] = m
		ln.normalize(x, out, t, r, r+1, mu[:1])
	}
}

// normalize writes rows [lo, hi) of x, normalized with the means mu and the
// standard deviations t.std holds, into t.xhat and — through the gain and
// bias — out.
func (ln *LayerNorm) normalize(x, out *Mat, t *lnTape, lo, hi int, mu []float64) {
	N := ln.N
	g, b := ln.G.Data[:N], ln.B.Data[:N]
	j0 := 0
	if n4 := N &^ 3; useAVX2 && n4 > 0 && x.Cols == N {
		_, _, _ = x.Data[(hi-1)*x.Cols+N-1], out.Data[hi*N-1], t.xhat.Data[hi*N-1] // lnNormRows writes these unchecked
		lnNormRows(&out.Data[lo*N], &t.xhat.Data[lo*N], &x.Data[lo*x.Cols], &g[0], &b[0], &mu[0], &t.std.Data[lo], hi-lo, N, n4)
		j0 = n4
	}
	for r := lo; r < hi; r++ {
		xr, or, hr := x.Row(r)[:N], out.Row(r)[:N], t.xhat.Row(r)[:N]
		m, std := mu[r-lo], t.std.Data[r]
		for i := j0; i < N; i++ {
			hr[i] = (xr[i] - m) / std
			or[i] = float64(hr[i]*g[i]) + b[i]
		}
	}
}

// backwardTape accumulates the gain and bias gradients (rows in the given
// order) and replaces each row of d — the gradient wrt the layer's output —
// with the gradient wrt its input. Per row it is the scalar oracle's
//
//	G.Grad[i] += dy·xhat[i];  B.Grad[i] += dy;  dxhat = dy·G[i]
//	dx[i] = (dxhat − sumDxhat/n − xhat[i]·sumDxhatX/n) / std
//
// with the two sums over dxhat and dxhat·xhat[i] in column order. With
// AVX2 the per-element lines run four columns at a time (lnBackGrads, rows
// in the given order, then lnBackFinish), the columns past the last
// multiple of 4 in Go; the sums of four rows run side by side.
func (ln *LayerNorm) backwardTape(t *lnTape, d *Mat, order []int) {
	N := ln.N
	gG, gB, gain := ln.G.Grad[:N], ln.B.Grad[:N], ln.G.Data[:N]
	n4 := 0
	if useAVX2 && len(order) > 0 && d.Cols == N && t.xhat.Cols == N {
		if n4 = N &^ 3; n4 > 0 {
			for _, r := range order {
				_, _ = d.Row(r)[N-1], t.xhat.Row(r)[N-1] // lnBackGrads reads these unchecked
			}
			lnBackGrads(&gG[0], &gB[0], &gain[0], &d.Data[0], &t.xhat.Data[0], &order[0], len(order), N, n4)
		}
	}
	for _, r := range order {
		dr, hr := d.Row(r)[:N], t.xhat.Row(r)[:N]
		for i := n4; i < N; i++ {
			dy := dr[i]
			gG[i] += float64(dy * hr[i])
			gB[i] += dy
			dr[i] = float64(dy * gain[i])
		}
	}
	k := 0
	for ; k+4 <= len(order); k += 4 {
		d0, d1, d2, d3 := d.Row(order[k])[:N], d.Row(order[k+1])[:N], d.Row(order[k+2])[:N], d.Row(order[k+3])[:N]
		h0, h1, h2, h3 := t.xhat.Row(order[k])[:N], t.xhat.Row(order[k+1])[:N], t.xhat.Row(order[k+2])[:N], t.xhat.Row(order[k+3])[:N]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		x0, x1, x2, x3 := 0.0, 0.0, 0.0, 0.0
		for i, v := range d0 {
			s0 += v
			x0 += float64(v * h0[i])
			s1 += d1[i]
			x1 += float64(d1[i] * h1[i])
			s2 += d2[i]
			x2 += float64(d2[i] * h2[i])
			s3 += d3[i]
			x3 += float64(d3[i] * h3[i])
		}
		ln.finishRow(t, d, order[k], n4, s0, x0)
		ln.finishRow(t, d, order[k+1], n4, s1, x1)
		ln.finishRow(t, d, order[k+2], n4, s2, x2)
		ln.finishRow(t, d, order[k+3], n4, s3, x3)
	}
	for ; k < len(order); k++ {
		dr, hr := d.Row(order[k])[:N], t.xhat.Row(order[k])[:N]
		sum, sumX := 0.0, 0.0
		for i, v := range dr {
			sum += v
			sumX += float64(v * hr[i])
		}
		ln.finishRow(t, d, order[k], n4, sum, sumX)
	}
}

// finishRow turns row r of d from dxhat into the gradient wrt the layer's
// input, given the row's sums of dxhat and of dxhat·xhat: the columns
// before n4 through lnBackFinish, the rest in Go.
func (ln *LayerNorm) finishRow(t *lnTape, d *Mat, r, n4 int, sumDxhat, sumDxhatX float64) {
	n := float64(ln.N)
	dr, hr := d.Row(r)[:ln.N], t.xhat.Row(r)[:ln.N]
	a, std := sumDxhat/n, t.std.Data[r]
	if n4 > 0 {
		lnBackFinish(&dr[0], &hr[0], n4, a, sumDxhatX, n, std)
	}
	for i := n4; i < len(dr); i++ {
		dr[i] = (dr[i] - a - float64(hr[i]*sumDxhatX)/n) / std
	}
}

// resTape is one residual block's slice of the tape.
type resTape struct {
	ln         lnTape
	lnOut, act Mat
}

// PolicyTape holds one batched forward pass of a Policy over B sequences of
// T timesteps, and the scratch of its backward. Rows are time-major — row
// t·B+b is sequence b at step t — so one timestep of every sequence is a
// contiguous block the GRU can advance in lock-step. A tape belongs to one
// goroutine and holds one pass at a time: a learner runs its target network
// and then its online network over the same tape, and an inference scratch
// (PolicyBatchScratch) is a tape that only ever holds one step.
type PolicyTape struct {
	B, T int
	// X holds the raw (masked, un-normalized) states; the caller fills it
	// after Reset (see StateRow).
	X Mat
	// Heads is the forward's output, DHeads the backward's input.
	Heads, DHeads Mat

	xn, e1pre, e1, e2pre, e2 Mat
	h                        Mat // (T+1)·B rows: the initial state, then each step's new state
	hLast                    Mat // view of h's last B rows
	z, r, n, unH             Mat
	ln                       lnTape
	lnOut, lrOut             Mat
	e3                       Mat
	fcPre, cur               Mat // cur: fc's activation, then the residual stream in place
	res                      []resTape

	order  []int // canonical accumulation order: sequence-major, time descending
	orderB int   // the B order was built for; len(order) is its B·T

	dA, dB                    Mat // row-parallel gradient scratch
	dE2, dhPrev               Mat // gradient wrt the GRU's input rows; wrt one step's incoming state
	dnPre, dUnH, drPre, dzPre Mat
	gemm                      gemmScratch
}

// Reset sizes the tape for b sequences of steps timesteps over inDim-wide
// states. Buffer contents are unspecified afterwards: the caller fills X,
// ForwardTape overwrites everything else.
func (t *PolicyTape) Reset(b, steps, inDim int) {
	t.B, t.T = b, steps
	t.X.Reset(b*steps, inDim)
}

// canonicalOrder returns the order every parameter gradient accumulates its
// rows in, building it on the first backward after the shape changed — so a
// tape that only runs forward, such as a serving scratch whose batch size
// changes every flush, never builds one.
func (t *PolicyTape) canonicalOrder() []int {
	if t.orderB != t.B || len(t.order) != t.B*t.T {
		t.orderB, t.order = t.B, t.order[:0]
		for s := 0; s < t.B; s++ {
			for i := t.T - 1; i >= 0; i-- {
				t.order = append(t.order, i*t.B+s)
			}
		}
	}
	return t.order
}

// Row is the tape row of sequence b at step i.
func (t *PolicyTape) Row(b, i int) int { return i*t.B + b }

// ForwardTape runs p over the states in t.X and leaves the GMM heads in t.Heads.
// Row for row it is bitwise p.Forward stepped through each sequence from a
// zero hidden state.
func (p *Policy) ForwardTape(t *PolicyTape) { p.ForwardTapeFrom(t, 0) }

// ForwardTapeFrom is ForwardTape for a reader of the heads of steps from
// onward only: the encoder and the GRU run every step, since each step's
// state carries into the next, but the layers above them only the rows of
// steps ≥ from — one contiguous suffix of the time-major tape. The heads of
// earlier steps are NaN. BackwardTape needs a whole pass (from = 0).
func (p *Policy) ForwardTapeFrom(t *PolicyTape, from int) {
	p.forward(t, &t.X, nil, from)
	t.DHeads.Reset(t.Heads.Rows, t.Heads.Cols)
}

// forward is the one walk of the Fig. 6 graph, training's and inference's:
// x holds the tape's B·T time-major rows of raw states, h0 the B initial
// hidden states (nil: zero), and only the rows of steps ≥ from run above
// the GRU. It returns t.Heads and the last step's new hidden rows — h0
// itself without a GRU.
func (p *Policy) forward(t *PolicyTape, x, h0 *Mat, from int) (heads, hNew *Mat) {
	rows, lo := t.B*t.T, from*t.B
	n, sc := rows-lo, &t.gemm
	p.Norm.BatchApply(x, &t.xn)
	p.enc1.batchForward(&t.xn, &t.e1pre, sc)
	leakyReLUTo(t.e1.Reset(rows, p.Cfg.Enc).Data, t.e1pre.Data, lreluAlpha)
	p.enc2.batchForward(&t.e1, &t.e2pre, sc)
	leakyReLUTo(t.e2.Reset(rows, p.Cfg.Enc).Data, t.e2pre.Data, lreluAlpha)

	e2 := t.e2.rowsView(lo, rows)
	trunk := &e2
	hNew = h0
	if p.gru != nil {
		p.gru.forwardTape(t, h0)
		t.hLast = t.h.rowsView(rows, rows+t.B)
		hNew = &t.hLast
		hs := t.h.rowsView(t.B+lo, rows+t.B)
		p.ln.forwardTape(&hs, &t.lnOut, &t.ln)
		leakyReLUTo(t.lrOut.Reset(n, p.Cfg.Hidden).Data, t.lnOut.Data, lreluAlpha)
		trunk = &t.lrOut
	}
	if p.enc3 != nil {
		p.enc3.batchForward(trunk, &t.e3, sc)
		tanhTo(t.e3.Data, t.e3.Data)
		trunk = &t.e3
	}
	p.fc.batchForward(trunk, &t.fcPre, sc)
	leakyReLUTo(t.cur.Reset(n, p.Cfg.Enc).Data, t.fcPre.Data, lreluAlpha)
	for len(t.res) < len(p.res) {
		t.res = append(t.res, resTape{})
	}
	for i := range p.res {
		rt := &t.res[i]
		p.res[i].ln.forwardTape(&t.cur, &rt.lnOut, &rt.ln)
		leakyReLUTo(rt.act.Reset(n, p.Cfg.Enc).Data, rt.lnOut.Data, lreluAlpha)
		p.res[i].fc.batchForward(&rt.act, &t.dA, sc)
		for j, d := range t.dA.Data {
			t.cur.Data[j] += d
		}
	}
	t.Heads.Reset(rows, p.head.Outs)
	for i := range t.Heads.Data[:lo*t.Heads.Cols] {
		t.Heads.Data[i] = math.NaN()
	}
	hv := t.Heads.rowsView(lo, rows)
	matMulBias(p.head.W, p.head.B.Data, &t.cur, &hv, sc)
	return &t.Heads, hNew
}

// forwardTape advances the cell over the tape from h0 (nil: zero): the
// input products W·x run once over every row, only the recurrent products
// U·h step through time, all sequences in lock-step. The three gates'
// products of one input share its transposed tiles.
func (g *GRU) forwardTape(t *PolicyTape, h0 *Mat) {
	B, H, rows := t.B, g.Hidden, t.B*t.T
	sc := &t.gemm
	t.z.Reset(rows, H).fillRows(g.Bz.Data)
	t.r.Reset(rows, H).fillRows(g.Br.Data)
	t.n.Reset(rows, H).fillRows(g.Bn.Data)
	matMul(&t.e2, sc, gemmJob{g.Wz, nil, &t.z, true}, gemmJob{g.Wr, nil, &t.r, true}, gemmJob{g.Wn, nil, &t.n, true})
	clear(t.unH.Reset(rows, H).Data)
	t.h.Reset(rows+B, H)
	if h0 == nil {
		clear(t.h.Data[:B*H])
	} else {
		copy(t.h.Data, h0.Data[:B*H])
	}
	for s := 0; s < t.T; s++ {
		lo, hi := s*B, (s+1)*B
		hPrev, hNew := t.h.rowsView(lo, hi), t.h.rowsView(hi, hi+B)
		z, r, n, unH := t.z.rowsView(lo, hi), t.r.rowsView(lo, hi), t.n.rowsView(lo, hi), t.unH.rowsView(lo, hi)
		matMul(&hPrev, sc, gemmJob{g.Uz, nil, &z, true}, gemmJob{g.Ur, nil, &r, true}, gemmJob{g.Un, nil, &unH, true})
		gruGates(z.Data, r.Data, n.Data, unH.Data, hPrev.Data, hNew.Data)
	}
}

// gruGates finishes one GRU step over a block of rows from the gates'
// pre-activations: z and r become σ(z) and σ(r), n becomes tanh(n + r∘unH),
// and hNew = (1−z)∘n + z∘hPrev.
func gruGates(z, r, n, unH, hPrev, hNew []float64) {
	sigmoidTo(z, z)
	sigmoidTo(r, r)
	n = n[:len(z)]
	for k, rk := range r[:len(n)] {
		n[k] += float64(rk * unH[k])
	}
	tanhTo(n, n)
	hPrev, hNew = hPrev[:len(z)], hNew[:len(z)]
	for k, zk := range z {
		hNew[k] = float64((1-zk)*n[k]) + float64(zk*hPrev[k])
	}
}

// backMul is backMulAcc into a freshly zeroed dX of the right shape.
func backMul(w *Param, dY, dX *Mat, sc *gemmScratch) *Mat {
	clear(dX.Reset(dY.Rows, w.Cols).Data)
	backMulAcc(w, dY, dX, sc)
	return dX
}

// BackwardTape backpropagates t.DHeads through the pass ForwardTape left on
// the tape and accumulates p's parameter gradients — bitwise the gradients
// of running, for each sequence in turn, a step-at-a-time BPTT from the last
// timestep to the first.
func (p *Policy) BackwardTape(t *PolicyTape) {
	order, sc := t.canonicalOrder(), &t.gemm
	gradAcc(p.head.W, p.head.B, &t.DHeads, &t.cur, order, sc)
	dCur := backMul(p.head.W, &t.DHeads, &t.dA, sc)
	for i := len(p.res) - 1; i >= 0; i-- {
		rt := &t.res[i]
		gradAcc(p.res[i].fc.W, p.res[i].fc.B, dCur, &rt.act, order, sc)
		d := backMul(p.res[i].fc.W, dCur, &t.dB, sc)
		leakyReLUBack(rt.lnOut.Data, d.Data, lreluAlpha)
		p.res[i].ln.backwardTape(&rt.ln, d, order)
		for j, v := range d.Data {
			dCur.Data[j] += v // skip connection
		}
	}
	leakyReLUBack(t.fcPre.Data, dCur.Data, lreluAlpha)
	// fc read the deepest of enc3, the GRU block and enc2 that exists.
	trunk := &t.e2
	if p.gru != nil {
		trunk = &t.lrOut
	}
	fcIn := trunk
	if p.enc3 != nil {
		fcIn = &t.e3
	}
	gradAcc(p.fc.W, p.fc.B, dCur, fcIn, order, sc)
	d := backMul(p.fc.W, dCur, &t.dB, sc)
	if p.enc3 != nil {
		tanhBack(t.e3.Data, d.Data)
		gradAcc(p.enc3.W, p.enc3.B, d, trunk, order, sc)
		d = backMul(p.enc3.W, d, &t.dA, sc)
	}
	if p.gru != nil {
		leakyReLUBack(t.lnOut.Data, d.Data, lreluAlpha)
		p.ln.backwardTape(&t.ln, d, order)
		d = p.gru.backwardTape(t, d)
	}
	leakyReLUBack(t.e2pre.Data, d.Data, lreluAlpha)
	gradAcc(p.enc2.W, p.enc2.B, d, &t.e1, order, sc)
	free := &t.dA // whichever scratch d is not
	if d == free {
		free = &t.dB
	}
	d1 := backMul(p.enc2.W, d, free, sc)
	leakyReLUBack(t.e1pre.Data, d1.Data, lreluAlpha)
	gradAcc(p.enc1.W, p.enc1.B, d1, &t.xn, order, sc)
}

// backwardTape is BPTT over the tape: dHNew holds, per row, the gradient
// reaching that step's new hidden state from the layers above; stepping
// from the last timestep to the first (all sequences in lock-step) it adds
// the gradient arriving from the following step, computes the gate
// gradients, and only then accumulates the nine parameter gradients over
// all rows in canonical order. It returns the gradient wrt the cell's input.
func (g *GRU) backwardTape(t *PolicyTape, dHNew *Mat) *Mat {
	B, H, rows, order, sc := t.B, g.Hidden, t.B*t.T, t.canonicalOrder(), &t.gemm
	dX := t.dE2.Reset(rows, g.In)
	clear(dX.Data)
	t.dnPre.Reset(rows, H)
	t.dUnH.Reset(rows, H)
	t.drPre.Reset(rows, H)
	t.dzPre.Reset(rows, H)
	dh := t.dhPrev.Reset(B, H)
	for s := t.T - 1; s >= 0; s-- {
		lo, hi := s*B, (s+1)*B
		dhNew, hPrev := dHNew.rowsView(lo, hi), t.h.rowsView(lo, hi)
		z, r, n, unH := t.z.rowsView(lo, hi), t.r.rowsView(lo, hi), t.n.rowsView(lo, hi), t.unH.rowsView(lo, hi)
		dn, du, dr, dz := t.dnPre.rowsView(lo, hi), t.dUnH.rowsView(lo, hi), t.drPre.rowsView(lo, hi), t.dzPre.rowsView(lo, hi)
		for k, d := range dhNew.Data {
			if s < t.T-1 {
				// The new state also fed the next timestep directly.
				d += dh.Data[k]
			}
			zk, rk, nk := z.Data[k], r.Data[k], n.Data[k]
			dzk := d * (hPrev.Data[k] - nk)
			dnk := d * (1 - zk)
			dh.Data[k] = 0
			dh.Data[k] += float64(d * zk)
			dnPre := dnk * (1 - float64(nk*nk))
			drk := dnPre * unH.Data[k]
			dn.Data[k] = dnPre
			du.Data[k] = dnPre * rk
			dr.Data[k] = drk * rk * (1 - rk)
			dz.Data[k] = dzk * zk * (1 - zk)
		}
		dx := dX.rowsView(lo, hi)
		backMulAcc(g.Wn, &dn, &dx, sc)
		backMulAcc(g.Wr, &dr, &dx, sc)
		backMulAcc(g.Wz, &dz, &dx, sc)
		backMulAcc(g.Un, &du, dh, sc)
		backMulAcc(g.Ur, &dr, dh, sc)
		backMulAcc(g.Uz, &dz, dh, sc)
	}
	hPrev := t.h.rowsView(0, rows)
	gradAcc(g.Wn, g.Bn, &t.dnPre, &t.e2, order, sc)
	gradAcc(g.Un, nil, &t.dUnH, &hPrev, order, sc)
	gradAcc(g.Wr, g.Br, &t.drPre, &t.e2, order, sc)
	gradAcc(g.Ur, nil, &t.drPre, &hPrev, order, sc)
	gradAcc(g.Wz, g.Bz, &t.dzPre, &t.e2, order, sc)
	gradAcc(g.Uz, nil, &t.dzPre, &hPrev, order, sc)
	return dX
}

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

// axpyTerm is one entry of an accumulation list: s times the row that
// starts at element off of the list's base slice.
type axpyTerm struct {
	s   float64
	off int
}

// axpyCols is axpyList32's block width: 32 columns, eight YMM registers.
const axpyCols = 32

// accTerms adds, for every term in list order, t.s·base[t.off+j] to acc[j]
// for every j < len(acc) (a row shorter than acc panics). Every element of
// acc is one chain of additions in list order — the product rounded, then
// the sum. With AVX2 each 32-column block runs through axpyList32, which
// keeps the block in registers across the whole list; the columns left over
// take the scalar chain, in the same order.
func accTerms(acc, base []float64, terms []axpyTerm) {
	n, j := len(acc), 0
	if len(terms) == 0 || n == 0 {
		return
	}
	for _, t := range terms {
		_ = base[t.off : t.off+n] // axpyList32 reads its rows unchecked
	}
	if useAVX2 {
		for ; j+axpyCols <= n; j += axpyCols {
			axpyList32(&acc[j], &base[j], &terms[0], len(terms))
		}
	}
	rest := acc[j:n]
	for _, t := range terms {
		v := base[t.off+j : t.off+n][:len(rest)]
		for k, x := range v {
			rest[k] += float64(t.s * x)
		}
	}
}

// gradAcc accumulates a dense layer's parameter gradients over a batch:
// w.Grad[o][j] += dY[r][o]·x[r][j] and, when bias is non-nil,
// bias.Grad[o] += dY[r][o], visiting rows r in the given order. Each
// gradient element is its own chain of additions in that order, so the
// loop nest is free: per output o, the rows' non-zero dY[r][o] are listed in
// that order and the whole list runs through one row of w.Grad at a time.
func gradAcc(w, bias *Param, dY, x *Mat, order []int, sc *gemmScratch) {
	cols, outs := w.Cols, w.Rows
	for o := 0; o < outs; o++ {
		terms := sc.terms[:0]
		bsum := 0.0
		if bias != nil {
			bsum = bias.Grad[o]
		}
		for _, r := range order {
			g := dY.Data[r*outs+o]
			if g == 0 {
				continue
			}
			bsum += g
			terms = append(terms, axpyTerm{g, r * cols})
		}
		accTerms(w.Grad[o*cols:(o+1)*cols], x.Data, terms)
		sc.terms = terms
		if bias != nil {
			bias.Grad[o] = bsum
		}
	}
}

// backMulAcc accumulates the input gradient of a dense layer for every row:
// dX[r][j] += Σ_o w[o][j]·dY[r][o], o ascending, zero dY[r][o] skipped.
func backMulAcc(w *Param, dY, dX *Mat, sc *gemmScratch) {
	cols, outs := w.Cols, w.Rows
	for r := 0; r < dY.Rows; r++ {
		terms := sc.terms[:0]
		for o, g := range dY.Data[r*outs : (r+1)*outs] {
			if g != 0 {
				terms = append(terms, axpyTerm{g, o * cols})
			}
		}
		accTerms(dX.Data[r*cols:(r+1)*cols], w.Data, terms)
		sc.terms = terms
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

// leakyReLUTo writes max(x, alpha·x) of src into dst (which may be src).
func leakyReLUTo(dst, src []float64, alpha float64) {
	one, a := math.Float64bits(1), math.Float64bits(alpha)
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v * lreluSlope(v, one, a)
	}
}

// leakyReLUBack turns d (gradient wrt the activation's output) into the
// gradient wrt its input pre, in place.
func leakyReLUBack(pre, d []float64, alpha float64) {
	one, a := math.Float64bits(1), math.Float64bits(alpha)
	d = d[:len(pre)]
	for i, v := range pre {
		d[i] *= lreluSlope(v, one, a)
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
func (ln *LayerNorm) forwardTape(x, out *Mat, t *lnTape) {
	out.Reset(x.Rows, ln.N)
	t.xhat.Reset(x.Rows, ln.N)
	t.std.Reset(x.Rows, 1)
	n := float64(ln.N)
	for r := 0; r < x.Rows; r++ {
		xr, or, hr := x.Row(r), out.Row(r), t.xhat.Row(r)
		mu := 0.0
		for _, v := range xr {
			mu += v
		}
		mu /= n
		varr := 0.0
		for _, v := range xr {
			d := v - mu
			varr += float64(d * d)
		}
		varr /= n
		std := math.Sqrt(varr + ln.Eps)
		t.std.Data[r] = std
		for i, v := range xr {
			hr[i] = (v - mu) / std
			or[i] = float64(hr[i]*ln.G.Data[i]) + ln.B.Data[i]
		}
	}
}

// backwardTape accumulates the gain and bias gradients (rows in the given
// order) and replaces each row of d — the gradient wrt the layer's output —
// with the gradient wrt its input.
func (ln *LayerNorm) backwardTape(t *lnTape, d *Mat, order []int) {
	n := float64(ln.N)
	for _, r := range order {
		dr, hr := d.Row(r), t.xhat.Row(r)
		sumDxhat, sumDxhatX := 0.0, 0.0
		for i, dy := range dr {
			ln.G.Grad[i] += float64(dy * hr[i])
			ln.B.Grad[i] += dy
			dxhat := float64(dy * ln.G.Data[i])
			dr[i] = dxhat
			sumDxhat += dxhat
			sumDxhatX += float64(dxhat * hr[i])
		}
		std := t.std.Data[r]
		for i, dxhat := range dr {
			dr[i] = (dxhat - sumDxhat/n - hr[i]*sumDxhatX/n) / std
		}
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
// U·h step through time, all sequences in lock-step.
func (g *GRU) forwardTape(t *PolicyTape, h0 *Mat) {
	B, H, rows := t.B, g.Hidden, t.B*t.T
	sc := &t.gemm
	t.z.Reset(rows, H).fillRows(g.Bz.Data)
	t.r.Reset(rows, H).fillRows(g.Br.Data)
	t.n.Reset(rows, H).fillRows(g.Bn.Data)
	matMulAcc(g.Wz, &t.e2, &t.z, sc)
	matMulAcc(g.Wr, &t.e2, &t.r, sc)
	matMulAcc(g.Wn, &t.e2, &t.n, sc)
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
		matMulAcc(g.Uz, &hPrev, &z, sc)
		matMulAcc(g.Ur, &hPrev, &r, sc)
		matMulAcc(g.Un, &hPrev, &unH, sc)
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

package nn

import "math"

// The sequential reference: the scalar one-vector-at-a-time layers and the
// step-at-a-time forward-with-cache and backward passes inference and
// training ran on before the batched kernels (batch.go, tape.go), kept
// verbatim as the one oracle TestPolicyBatchForwardMatchesSequential and
// TestTapeMatchesSequential hold those kernels to, bit for bit. Nothing
// outside the tests calls them.

// Apply returns the standardized copy of x, clipped to ±10σ.
func (n *Normalizer) Apply(x []float64) []float64 {
	if len(n.Mean) == 0 {
		return append([]float64(nil), x...)
	}
	y := make([]float64, len(x))
	for i, v := range x {
		z := (v - n.Mean[i]) / n.Std[i]
		if z > 10 {
			z = 10
		} else if z < -10 {
			z = -10
		}
		y[i] = z
	}
	return y
}

// Forward computes y = Wx + b.
func (d *Dense) Forward(x []float64) []float64 {
	y := make([]float64, d.Outs)
	for i := 0; i < d.Outs; i++ {
		row := d.W.Data[i*d.In : (i+1)*d.In]
		s := d.B.Data[i]
		for j, xj := range x {
			s += row[j] * xj
		}
		y[i] = s
	}
	return y
}

// LeakyReLU applies max(x, alpha·x) elementwise.
func LeakyReLU(x []float64, alpha float64) []float64 {
	y := make([]float64, len(x))
	leakyReLUTo(y, x, alpha)
	return y
}

// Tanh applies tanh elementwise.
func Tanh(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// matVec accumulates out += W·x, each dot product summed separately and
// added once.
func matVec(p *Param, x []float64, out []float64) {
	for i := 0; i < p.Rows; i++ {
		row := p.Data[i*p.Cols : (i+1)*p.Cols]
		s := 0.0
		for j, xj := range x {
			s += row[j] * xj
		}
		out[i] += s
	}
}

// Backward accumulates parameter gradients for input x and output gradient
// dy, and returns dx.
func (d *Dense) Backward(x, dy []float64) []float64 {
	dx := make([]float64, d.In)
	for i := 0; i < d.Outs; i++ {
		g := dy[i]
		if g == 0 {
			continue
		}
		row := d.W.Data[i*d.In : (i+1)*d.In]
		grow := d.W.Grad[i*d.In : (i+1)*d.In]
		d.B.Grad[i] += g
		for j, xj := range x {
			grow[j] += g * xj
			dx[j] += row[j] * g
		}
	}
	return dx
}

// lnCache carries the normalization statistics Backward needs.
type lnCache struct {
	xhat []float64
	std  float64
}

// forwardCached normalizes x; the returned cache must be passed to Backward.
func (ln *LayerNorm) forwardCached(x []float64) ([]float64, *lnCache) {
	n := float64(ln.N)
	mu := 0.0
	for _, v := range x {
		mu += v
	}
	mu /= n
	varr := 0.0
	for _, v := range x {
		d := v - mu
		varr += d * d
	}
	varr /= n
	std := math.Sqrt(varr + ln.Eps)
	xhat := make([]float64, ln.N)
	y := make([]float64, ln.N)
	for i, v := range x {
		xhat[i] = (v - mu) / std
		y[i] = xhat[i]*ln.G.Data[i] + ln.B.Data[i]
	}
	return y, &lnCache{xhat: xhat, std: std}
}

// Backward accumulates gradients and returns dx.
func (ln *LayerNorm) Backward(c *lnCache, dy []float64) []float64 {
	n := float64(ln.N)
	dxhat := make([]float64, ln.N)
	sumDxhat := 0.0
	sumDxhatX := 0.0
	for i := range dy {
		ln.G.Grad[i] += dy[i] * c.xhat[i]
		ln.B.Grad[i] += dy[i]
		dxhat[i] = dy[i] * ln.G.Data[i]
		sumDxhat += dxhat[i]
		sumDxhatX += dxhat[i] * c.xhat[i]
	}
	dx := make([]float64, ln.N)
	for i := range dx {
		dx[i] = (dxhat[i] - sumDxhat/n - c.xhat[i]*sumDxhatX/n) / c.std
	}
	return dx
}

// LeakyReLUBackward returns dx given the layer input and dy.
func LeakyReLUBackward(x, dy []float64, alpha float64) []float64 {
	dx := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			dx[i] = dy[i]
		} else {
			dx[i] = alpha * dy[i]
		}
	}
	return dx
}

// TanhBackward returns dx given the layer *output* y and dy.
func TanhBackward(y, dy []float64) []float64 {
	dx := make([]float64, len(y))
	for i := range y {
		dx[i] = dy[i] * (1 - y[i]*y[i])
	}
	return dx
}

// GRUCache stores one step's intermediates for BPTT.
type GRUCache struct {
	x, h    []float64 // inputs
	z, r, n []float64
	unH     []float64 // Un·h
	hNew    []float64
}

// matVecT accumulates out += Wᵀ·dy.
func matVecT(p *Param, dy []float64, out []float64) {
	for i := 0; i < p.Rows; i++ {
		row := p.Data[i*p.Cols : (i+1)*p.Cols]
		g := dy[i]
		if g == 0 {
			continue
		}
		for j := range out {
			out[j] += row[j] * g
		}
	}
}

// outerAcc accumulates p.Grad += dy ⊗ x.
func outerAcc(p *Param, dy, x []float64) {
	for i := 0; i < p.Rows; i++ {
		g := dy[i]
		if g == 0 {
			continue
		}
		grow := p.Grad[i*p.Cols : (i+1)*p.Cols]
		for j, xj := range x {
			grow[j] += g * xj
		}
	}
}

// forwardCached advances the cell one step, returning the new hidden state
// and a cache for Backward.
func (g *GRU) forwardCached(x, h []float64) ([]float64, *GRUCache) {
	H := g.Hidden
	c := &GRUCache{
		x: append([]float64(nil), x...),
		h: append([]float64(nil), h...),
		z: make([]float64, H), r: make([]float64, H), n: make([]float64, H),
		unH: make([]float64, H), hNew: make([]float64, H),
	}
	zPre := make([]float64, H)
	rPre := make([]float64, H)
	nPre := make([]float64, H)
	copy(zPre, g.Bz.Data)
	copy(rPre, g.Br.Data)
	matVec(g.Wz, x, zPre)
	matVec(g.Uz, h, zPre)
	matVec(g.Wr, x, rPre)
	matVec(g.Ur, h, rPre)
	for i := 0; i < H; i++ {
		c.z[i] = sigmoid(zPre[i])
		c.r[i] = sigmoid(rPre[i])
	}
	copy(nPre, g.Bn.Data)
	matVec(g.Wn, x, nPre)
	matVec(g.Un, h, c.unH)
	for i := 0; i < H; i++ {
		nPre[i] += c.r[i] * c.unH[i]
		c.n[i] = math.Tanh(nPre[i])
		c.hNew[i] = (1-c.z[i])*c.n[i] + c.z[i]*h[i]
	}
	return c.hNew, c
}

// Backward consumes the cache and the gradient wrt the new hidden state,
// accumulates parameter gradients, and returns (dx, dhPrev).
func (g *GRU) Backward(c *GRUCache, dhNew []float64) (dx, dh []float64) {
	H := g.Hidden
	dx = make([]float64, g.In)
	dh = make([]float64, H)
	dz := make([]float64, H)
	dn := make([]float64, H)
	dnPre := make([]float64, H)
	drPre := make([]float64, H)
	dzPre := make([]float64, H)
	dUnH := make([]float64, H)
	for i := 0; i < H; i++ {
		dz[i] = dhNew[i] * (c.h[i] - c.n[i])
		dn[i] = dhNew[i] * (1 - c.z[i])
		dh[i] += dhNew[i] * c.z[i]
		dnPre[i] = dn[i] * (1 - c.n[i]*c.n[i])
		dr := dnPre[i] * c.unH[i]
		dUnH[i] = dnPre[i] * c.r[i]
		drPre[i] = dr * c.r[i] * (1 - c.r[i])
		dzPre[i] = dz[i] * c.z[i] * (1 - c.z[i])
	}
	// n-gate.
	outerAcc(g.Wn, dnPre, c.x)
	matVecT(g.Wn, dnPre, dx)
	for i := 0; i < H; i++ {
		g.Bn.Grad[i] += dnPre[i]
	}
	outerAcc(g.Un, dUnH, c.h)
	matVecT(g.Un, dUnH, dh)
	// r-gate.
	outerAcc(g.Wr, drPre, c.x)
	matVecT(g.Wr, drPre, dx)
	outerAcc(g.Ur, drPre, c.h)
	matVecT(g.Ur, drPre, dh)
	for i := 0; i < H; i++ {
		g.Br.Grad[i] += drPre[i]
	}
	// z-gate.
	outerAcc(g.Wz, dzPre, c.x)
	matVecT(g.Wz, dzPre, dx)
	outerAcc(g.Uz, dzPre, c.h)
	matVecT(g.Uz, dzPre, dh)
	for i := 0; i < H; i++ {
		g.Bz.Grad[i] += dzPre[i]
	}
	return dx, dh
}

type resCache struct {
	in    []float64
	lnC   *lnCache
	lnOut []float64
	act   []float64
}

// policyCacheRef holds one forward step's intermediates.
type policyCacheRef struct {
	xn         []float64 // normalized input
	e1pre, e1  []float64
	e2pre, e2  []float64
	gruC       *GRUCache
	lnC        *lnCache
	lnOut      []float64
	lrOut      []float64
	e3pre, e3  []float64
	fcIn       []float64
	fcPre, fcA []float64
	res        []resCache
	resOut     []float64
	headOut    []float64
}

// forwardCached is one scalar timestep keeping every intermediate Backward
// needs.
func (p *Policy) forwardCached(state, hidden []float64) (head, hNew []float64, cache *policyCacheRef) {
	c := &policyCacheRef{}
	c.xn = p.Norm.Apply(state)
	c.e1pre = p.enc1.Forward(c.xn)
	c.e1 = LeakyReLU(c.e1pre, lreluAlpha)
	c.e2pre = p.enc2.Forward(c.e1)
	c.e2 = LeakyReLU(c.e2pre, lreluAlpha)

	trunk := c.e2
	hNew = hidden
	if p.gru != nil {
		hNew, c.gruC = p.gru.forwardCached(c.e2, hidden)
		c.lnOut, c.lnC = p.ln.forwardCached(hNew)
		c.lrOut = LeakyReLU(c.lnOut, lreluAlpha)
		trunk = c.lrOut
	}
	if p.enc3 != nil {
		c.e3pre = p.enc3.Forward(trunk)
		c.e3 = Tanh(c.e3pre)
		trunk = c.e3
	}
	c.fcIn = trunk
	c.fcPre = p.fc.Forward(trunk)
	c.fcA = LeakyReLU(c.fcPre, lreluAlpha)
	cur := c.fcA
	for i := range p.res {
		rc := resCache{in: cur}
		var lnOut []float64
		lnOut, rc.lnC = p.res[i].ln.forwardCached(cur)
		rc.lnOut = lnOut
		rc.act = LeakyReLU(lnOut, lreluAlpha)
		delta := p.res[i].fc.Forward(rc.act)
		next := make([]float64, len(cur))
		for j := range next {
			next[j] = cur[j] + delta[j]
		}
		c.res = append(c.res, rc)
		cur = next
	}
	c.resOut = cur
	c.headOut = p.head.Forward(cur)
	return c.headOut, hNew, c
}

// Backward propagates one step's gradients: dHead is the gradient wrt the
// GMM head output, dHiddenIn the gradient flowing back into this step's new
// hidden state from the *next* timestep (nil at the end of a BPTT segment).
// It accumulates parameter gradients and returns the gradient wrt the
// incoming hidden state (nil when NoGRU).
func (p *Policy) Backward(c *policyCacheRef, dHead, dHiddenIn []float64) []float64 {
	dCur := p.head.Backward(c.resOut, dHead)
	for i := len(p.res) - 1; i >= 0; i-- {
		rc := c.res[i]
		dDelta := dCur // gradient into the block's Dense output
		dAct := p.res[i].fc.Backward(rc.act, dDelta)
		dLn := LeakyReLUBackward(rc.lnOut, dAct, lreluAlpha)
		dIn := p.res[i].ln.Backward(rc.lnC, dLn)
		next := make([]float64, len(dCur))
		for j := range next {
			next[j] = dCur[j] + dIn[j] // skip connection
		}
		dCur = next
	}
	dFcPre := LeakyReLUBackward(c.fcPre, dCur, lreluAlpha)
	dTrunk := p.fc.Backward(c.fcIn, dFcPre)
	if p.enc3 != nil {
		dE3pre := TanhBackward(c.e3, dTrunk)
		var src []float64
		if p.gru != nil {
			src = c.lrOut
		} else {
			src = c.e2
		}
		dTrunk = p.enc3.Backward(src, dE3pre)
	}
	var dHidden []float64
	dE2 := dTrunk
	if p.gru != nil {
		dLn := LeakyReLUBackward(c.lnOut, dTrunk, lreluAlpha)
		dHNew := p.ln.Backward(c.lnC, dLn)
		// hNew also feeds the next timestep directly: merge that gradient
		// before the single GRU backward pass.
		if dHiddenIn != nil {
			for i := range dHNew {
				dHNew[i] += dHiddenIn[i]
			}
		}
		var dx []float64
		dx, dHidden = p.gru.Backward(c.gruC, dHNew)
		dE2 = dx
	}
	dE2pre := LeakyReLUBackward(c.e2pre, dE2, lreluAlpha)
	dE1 := p.enc2.Backward(c.e1, dE2pre)
	dE1pre := LeakyReLUBackward(c.e1pre, dE1, lreluAlpha)
	p.enc1.Backward(c.xn, dE1pre)
	return dHidden
}

// NAFCache holds forward intermediates.
type NAFCache struct {
	xn         []float64
	h1pre, h1  []float64
	h2pre, h2  []float64
	v, mPre, m float64
	pPre, p    float64
	a, q       float64
}

// forwardCached evaluates Q(s, a) with a cache.
func (c *NAFCritic) forwardCached(state []float64, a float64) *NAFCache {
	ca := &NAFCache{a: a}
	ca.xn = c.Norm.Apply(state)
	ca.h1pre = c.l1.Forward(ca.xn)
	ca.h1 = LeakyReLU(ca.h1pre, lreluAlpha)
	ca.h2pre = c.l2.Forward(ca.h1)
	ca.h2 = LeakyReLU(ca.h2pre, lreluAlpha)
	ca.v = c.headV.Forward(ca.h2)[0]
	ca.mPre = c.headM.Forward(ca.h2)[0]
	ca.m = math.Tanh(ca.mPre)
	ca.pPre = c.headP.Forward(ca.h2)[0]
	ca.p = softplus(ca.pPre) + c.Cfg.PMin
	d := a - ca.m
	ca.q = ca.v - ca.p*d*d
	return ca
}

// Greedy returns the critic's maximizing action m(s) and the value V(s).
func (c *NAFCritic) Greedy(state []float64) (m, v float64) {
	ca := c.forwardCached(state, 0)
	return ca.m, ca.v
}

func sigmoidOf(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// tdBackwardRef accumulates gradients of weight·½(Q(s,a) − y)² and returns the
// unweighted squared error. The target y is clamped to [0, VMax].
func (c *NAFCritic) tdBackwardRef(state []float64, a, y, weight float64) float64 {
	if y < 0 {
		y = 0
	}
	if y > c.Cfg.VMax {
		y = c.Cfg.VMax
	}
	ca := c.forwardCached(state, a)
	err := ca.q - y
	dq := err * weight
	d := a - ca.m
	// Q = v − p·d²
	dv := dq
	dp := -dq * d * d
	dm := dq * 2 * ca.p * d
	// Head pre-activations.
	dmPre := dm * (1 - ca.m*ca.m)
	var dpPre float64
	if ca.pPre > 30 {
		dpPre = dp
	} else {
		dpPre = dp * sigmoidOf(ca.pPre) // d softplus/dx = σ(x)
	}
	dh2 := c.headV.Backward(ca.h2, []float64{dv})
	dh2m := c.headM.Backward(ca.h2, []float64{dmPre})
	dh2p := c.headP.Backward(ca.h2, []float64{dpPre})
	for i := range dh2 {
		dh2[i] += dh2m[i] + dh2p[i]
	}
	dh2pre := LeakyReLUBackward(ca.h2pre, dh2, lreluAlpha)
	dh1 := c.l2.Backward(ca.h1, dh2pre)
	dh1pre := LeakyReLUBackward(ca.h1pre, dh1, lreluAlpha)
	c.l1.Backward(ca.xn, dh1pre)
	return err * err
}

// logProbGradRef returns log π(a) and d logπ/dp (length 3K).
func (g GMM) logProbGradRef(p []float64, a float64) (float64, []float64) {
	logits, means, logstds := g.split(p)
	w := Softmax(logits)
	logJoint := make([]float64, g.K)
	sigma := make([]float64, g.K)
	inRange := make([]bool, g.K)
	lse := LogSumExp(logits)
	for k := 0; k < g.K; k++ {
		s := clampLogStd(logstds[k])
		inRange[k] = logstds[k] > gmmLogStdMin && logstds[k] < gmmLogStdMax
		sigma[k] = math.Exp(s)
		z := (a - means[k]) / sigma[k]
		logJoint[k] = (logits[k] - lse) + (-0.5*z*z - s - 0.5*log2Pi)
	}
	logp := LogSumExp(logJoint)
	dp := make([]float64, 3*g.K)
	for k := 0; k < g.K; k++ {
		gamma := math.Exp(logJoint[k] - logp) // responsibility
		// d/dlogits: γ_k − w_k (softmax prior gradient).
		dp[k] = gamma - w[k]
		z := (a - means[k]) / sigma[k]
		dp[g.K+k] = gamma * z / sigma[k] // d/dmean
		if inRange[k] {
			dp[2*g.K+k] = gamma * (z*z - 1) // d/dlogstd
		}
	}
	return logp, dp
}

package nn

import (
	"math"
	"math/rand"
)

// NAFCritic is a Normalized-Advantage-Function critic (Gu et al. 2016) over
// a scalar action:
//
//	Q(s, a) = V(s) − p(s)·(a − m(s))²,  p(s) = softplus(·) ≥ 0
//
// The quadratic form matters here beyond convenience: congestion-control
// returns are confounded — in the pool, large positive window moves happen
// while flows are still ramping (low reward) and large cuts happen at
// saturation (high reward), so an unconstrained critic learns a spurious
// global negative slope in the action. NAF has no linear-in-a shortcut: the
// action enters only relative to the state-dependent maximizer m(s), which
// is also the right inductive bias (too small a window starves, too large
// bloats/loses).
type NAFCritic struct {
	Cfg  NAFConfig
	Norm *Normalizer

	l1, l2 *Dense
	headV  *Dense // V(s)
	headM  *Dense // pre-tanh maximizer
	headP  *Dense // pre-softplus curvature

	params []*Param // Params(), built once
}

// NAFConfig sizes the critic.
type NAFConfig struct {
	InDim  int
	Hidden int
	// VMax bounds value estimates (targets are clamped to [0, VMax]) —
	// rewards live in [0,1], so VMax ≈ 1/(1−γ) plays the role C51's
	// bounded support plays for stability. Default 100.
	VMax float64
	// PMin floors the curvature p(s) so the quadratic never flattens into
	// an unidentifiable m(s). Default 0.05.
	PMin float64
	Seed int64
}

// Fill applies defaults.
func (c NAFConfig) Fill() NAFConfig {
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.VMax == 0 {
		c.VMax = 100
	}
	if c.PMin == 0 {
		c.PMin = 0.05
	}
	return c
}

// NewNAFCritic builds a freshly initialized critic.
func NewNAFCritic(cfg NAFConfig) *NAFCritic {
	cfg = cfg.Fill()
	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	c := &NAFCritic{Cfg: cfg, Norm: &Normalizer{}}
	c.l1 = NewDense("naf1", cfg.InDim, cfg.Hidden, rng)
	c.l2 = NewDense("naf2", cfg.Hidden, cfg.Hidden, rng)
	c.headV = NewDense("nafV", cfg.Hidden, 1, rng)
	c.headM = NewDense("nafM", cfg.Hidden, 1, rng)
	c.headP = NewDense("nafP", cfg.Hidden, 1, rng)
	for _, m := range []*Dense{c.l1, c.l2, c.headV, c.headM, c.headP} {
		c.params = append(c.params, m.Params()...)
	}
	return c
}

// Params implements Module. The list is built once; callers must not
// modify it.
func (c *NAFCritic) Params() []*Param { return c.params }

func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}

// nafQ is the quadratic Q(s, a) = v − p·(a − m)² in the operation order
// every evaluation path shares.
func nafQ(v, m, p, a float64) float64 {
	d := a - m
	return v - float64(p*d*d)
}

// Q returns the action value of one state — BatchForward on a throwaway
// one-row tape. It allocates; hot callers hold a NAFTape.
func (c *NAFCritic) Q(state []float64, a float64) float64 {
	var t NAFTape
	t.Reset(1, len(state))
	t.X.SetRow(0, state)
	c.BatchForward(&t)
	return t.Q(0, a)
}

// NAFTape holds one batched evaluation of a NAFCritic — one state per row —
// and the scratch of its TD backward. The state-only terms V, M, P are
// computed once per row and serve every action evaluated at that state. A
// tape belongs to one goroutine.
type NAFTape struct {
	// X holds the raw states, A and Y the TD backward's actions and targets;
	// the caller fills them after Reset.
	X    Mat
	A, Y []float64
	// V(s), m(s) and p(s) per row, left by BatchForward.
	V, M, P []float64

	xn, h1pre, h1, h2pre, h2 Mat
	v, mPre, pPre            Mat // head outputs, one column each
	dV, dM, dP               Mat
	dh2, dh2m, dh2p, dh1     Mat
	gemm                     gemmScratch
}

// Reset sizes the tape for rows states of inDim features.
func (t *NAFTape) Reset(rows, inDim int) {
	t.X.Reset(rows, inDim)
	for _, f := range []*[]float64{&t.A, &t.Y, &t.M, &t.P} {
		if cap(*f) < rows {
			*f = make([]float64, rows)
		}
		*f = (*f)[:rows]
	}
}

// Q evaluates Q(s, a) for row r's state.
func (t *NAFTape) Q(r int, a float64) float64 { return nafQ(t.V[r], t.M[r], t.P[r], a) }

// BatchForward evaluates the state-only terms for every row of t.X; row for
// row it is bitwise the single-state forward.
func (c *NAFCritic) BatchForward(t *NAFTape) {
	rows, sc := t.X.Rows, &t.gemm
	c.Norm.BatchApply(&t.X, &t.xn)
	c.l1.batchForward(&t.xn, &t.h1pre, sc)
	leakyReLUTo(t.h1.Reset(rows, c.Cfg.Hidden).Data, t.h1pre.Data, lreluAlpha)
	c.l2.batchForward(&t.h1, &t.h2pre, sc)
	leakyReLUTo(t.h2.Reset(rows, c.Cfg.Hidden).Data, t.h2pre.Data, lreluAlpha)
	c.headV.batchForward(&t.h2, &t.v, sc)
	c.headM.batchForward(&t.h2, &t.mPre, sc)
	c.headP.batchForward(&t.h2, &t.pPre, sc)
	t.V = t.v.Data
	for r := 0; r < rows; r++ {
		t.M[r] = math.Tanh(t.mPre.Data[r])
		t.P[r] = softplus(t.pPre.Data[r]) + c.Cfg.PMin
	}
}

// TDBackward accumulates, for the listed rows of the pass BatchForward left
// on t, the gradients of weight·½(Q(s, A[r]) − Y[r])², and returns the sum
// of the unweighted squared errors. Targets are clamped to [0, VMax]. Rows
// accumulate in the order listed — bitwise a row-at-a-time backward; a row
// not listed contributes nothing.
func (c *NAFCritic) TDBackward(t *NAFTape, order []int, weight float64) float64 {
	rows, sc := t.X.Rows, &t.gemm
	clear(t.dV.Reset(rows, 1).Data)
	clear(t.dM.Reset(rows, 1).Data)
	clear(t.dP.Reset(rows, 1).Data)
	loss := 0.0
	for _, r := range order {
		y := t.Y[r]
		if y < 0 {
			y = 0
		}
		if y > c.Cfg.VMax {
			y = c.Cfg.VMax
		}
		a, m, p := t.A[r], t.M[r], t.P[r]
		err := t.Q(r, a) - y
		loss += float64(err * err)
		dq := float64(err * weight) // dq*2 below becomes dq+dq, which must not fuse with it
		d := a - m
		// Q = v − p·d²
		dp := -dq * d * d
		dm := dq * 2 * p * d
		// Head pre-activations.
		t.dV.Data[r] = dq
		t.dM.Data[r] = dm * (1 - float64(m*m))
		if pPre := t.pPre.Data[r]; pPre > 30 {
			t.dP.Data[r] = dp
		} else {
			t.dP.Data[r] = dp * sigmoid(pPre) // d softplus/dx = σ(x)
		}
	}
	gradAcc(c.headV.W, c.headV.B, &t.dV, &t.h2, order, sc)
	gradAcc(c.headM.W, c.headM.B, &t.dM, &t.h2, order, sc)
	gradAcc(c.headP.W, c.headP.B, &t.dP, &t.h2, order, sc)
	backMul(c.headV.W, &t.dV, &t.dh2, sc)
	backMul(c.headM.W, &t.dM, &t.dh2m, sc)
	backMul(c.headP.W, &t.dP, &t.dh2p, sc)
	for i := range t.dh2.Data {
		t.dh2.Data[i] += t.dh2m.Data[i] + t.dh2p.Data[i]
	}
	leakyReLUBack(t.h2pre.Data, t.dh2.Data, lreluAlpha)
	gradAcc(c.l2.W, c.l2.B, &t.dh2, &t.h1, order, sc)
	backMul(c.l2.W, &t.dh2, &t.dh1, sc)
	leakyReLUBack(t.h1pre.Data, t.dh1.Data, lreluAlpha)
	gradAcc(c.l1.W, c.l1.B, &t.dh1, &t.xn, order, sc)
	return loss
}

// CloneNAF returns a deep copy (target network).
func CloneNAF(c *NAFCritic) *NAFCritic {
	q := NewNAFCritic(c.Cfg)
	q.Norm = c.Norm
	CopyParams(q, c)
	return q
}

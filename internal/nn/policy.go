package nn

import (
	"math/rand"
)

// PolicyConfig sizes the Sage policy network of Fig. 6. The paper's scale is
// Enc=256, Hidden=1024, ResBlocks=2; the defaults here are CPU-sized and
// every experiment config can raise them.
type PolicyConfig struct {
	InDim     int
	Enc       int // encoder width (FC 256 in the paper)
	Hidden    int // GRU width (1024 in the paper)
	ResBlocks int // residual blocks after the FC (2 in the paper)
	K         int // GMM components; 1 reproduces the "no GMM" ablation head

	// Ablation switches (Fig. 12).
	NoGRU     bool // remove the GRU block
	NoEncoder bool // remove the encoder right after the GRU

	Seed int64
}

// Fill applies defaults.
func (c PolicyConfig) Fill() PolicyConfig {
	if c.Enc == 0 {
		c.Enc = 64
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.ResBlocks == 0 {
		c.ResBlocks = 2
	}
	if c.K == 0 {
		c.K = 5
	}
	return c
}

// resBlock is a pre-activation residual block with LayerNorm:
// out = in + Dense(LReLU(LN(in))).
type resBlock struct {
	ln *LayerNorm
	fc *Dense
}

type resCache struct {
	in    []float64
	lnC   *lnCache
	lnOut []float64
	act   []float64
}

// Policy is the Fig. 6 network: encoder → GRU → LayerNorm+LReLU → encoder
// (tanh) → FC+LReLU → residual blocks → GMM head.
type Policy struct {
	Cfg  PolicyConfig
	GMM  GMM
	Norm *Normalizer

	enc1, enc2 *Dense
	gru        *GRU
	ln         *LayerNorm
	enc3       *Dense
	fc         *Dense
	res        []resBlock
	head       *Dense
}

// NewPolicy builds a freshly initialized policy network.
func NewPolicy(cfg PolicyConfig) *Policy {
	cfg = cfg.Fill()
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	p := &Policy{Cfg: cfg, GMM: GMM{K: cfg.K}, Norm: &Normalizer{}}
	p.enc1 = NewDense("enc1", cfg.InDim, cfg.Enc, rng)
	p.enc2 = NewDense("enc2", cfg.Enc, cfg.Enc, rng)
	width := cfg.Enc
	if !cfg.NoGRU {
		p.gru = NewGRU("gru", cfg.Enc, cfg.Hidden, rng)
		p.ln = NewLayerNorm("gru_ln", cfg.Hidden)
		width = cfg.Hidden
	}
	if !cfg.NoEncoder {
		p.enc3 = NewDense("enc3", width, cfg.Enc, rng)
		width = cfg.Enc
	}
	p.fc = NewDense("fc", width, cfg.Enc, rng)
	for i := 0; i < cfg.ResBlocks; i++ {
		p.res = append(p.res, resBlock{
			ln: NewLayerNorm("res_ln", cfg.Enc),
			fc: NewDense("res_fc", cfg.Enc, cfg.Enc, rng),
		})
	}
	p.head = NewDense("head", cfg.Enc, p.GMM.HeadDim(), rng)
	return p
}

// Params implements Module.
func (p *Policy) Params() []*Param {
	var out []*Param
	out = append(out, p.enc1.Params()...)
	out = append(out, p.enc2.Params()...)
	if p.gru != nil {
		out = append(out, p.gru.Params()...)
		out = append(out, p.ln.Params()...)
	}
	if p.enc3 != nil {
		out = append(out, p.enc3.Params()...)
	}
	out = append(out, p.fc.Params()...)
	for _, r := range p.res {
		out = append(out, r.ln.Params()...)
		out = append(out, r.fc.Params()...)
	}
	out = append(out, p.head.Params()...)
	return out
}

// InitHidden returns a zeroed recurrent state (empty when NoGRU).
func (p *Policy) InitHidden() []float64 {
	if p.gru == nil {
		return nil
	}
	return make([]float64, p.Cfg.Hidden)
}

// PolicyCache holds one forward step's intermediates.
type PolicyCache struct {
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

const lreluAlpha = 0.01

// Forward runs one timestep: it normalizes the raw state, advances the GRU,
// and returns (GMM head output, new hidden state, cache).
func (p *Policy) Forward(state, hidden []float64) (head, hNew []float64, cache *PolicyCache) {
	c := &PolicyCache{}
	c.xn = p.Norm.Apply(state)
	c.e1pre = p.enc1.Forward(c.xn)
	c.e1 = LeakyReLU(c.e1pre, lreluAlpha)
	c.e2pre = p.enc2.Forward(c.e1)
	c.e2 = LeakyReLU(c.e2pre, lreluAlpha)

	trunk := c.e2
	hNew = hidden
	if p.gru != nil {
		hNew, c.gruC = p.gru.Forward(c.e2, hidden)
		c.lnOut, c.lnC = p.ln.Forward(hNew)
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
		lnOut, rc.lnC = p.res[i].ln.Forward(cur)
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
func (p *Policy) Backward(c *PolicyCache, dHead, dHiddenIn []float64) []float64 {
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

// LastHidden returns the activation of the network's last hidden layer for a
// forward cache — the embedding Fig. 16 visualizes with t-SNE.
func (p *Policy) LastHidden(c *PolicyCache) []float64 { return c.resOut }

// ClonePolicy returns a deep copy (used for target networks).
func ClonePolicy(p *Policy) *Policy {
	q := NewPolicy(p.Cfg)
	q.Norm = p.Norm
	CopyParams(q, p)
	return q
}

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

	params []*Param // Params(), built once
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
	p.params = p.listParams()
	return p
}

// Params implements Module. The list is built once; callers must not
// modify it.
func (p *Policy) Params() []*Param { return p.params }

func (p *Policy) listParams() []*Param {
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

const lreluAlpha = 0.01

// Forward runs one timestep for one flow — BatchForward on a throwaway
// one-row scratch — and returns the GMM head output and the new hidden
// state. It allocates; hot callers hold a stepper (rl.Stepper).
func (p *Policy) Forward(state, hidden []float64) (head, hNew []float64) {
	x := Mat{Rows: 1, Cols: len(state), Data: state}
	h := Mat{Rows: 1, Cols: len(hidden), Data: hidden}
	heads, hn := p.BatchForward(&x, &h, p.NewBatchScratch())
	return heads.Data, hn.Data
}

// ClonePolicy returns a deep copy (used for target networks).
func ClonePolicy(p *Policy) *Policy {
	q := NewPolicy(p.Cfg)
	q.Norm = p.Norm
	CopyParams(q, p)
	return q
}

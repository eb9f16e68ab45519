package nn

import (
	"math"
	"math/rand"
)

// GRU is a gated recurrent unit cell (Chung et al. 2014), the memory block
// of the Sage architecture (Fig. 6):
//
//	z = σ(Wz·x + Uz·h + bz)
//	r = σ(Wr·x + Ur·h + br)
//	n = tanh(Wn·x + r ∘ (Un·h) + bn)
//	h' = (1−z) ∘ n + z ∘ h
type GRU struct {
	In, Hidden             int
	Wz, Uz, Bz, Wr, Ur, Br *Param
	Wn, Un, Bn             *Param
}

// NewGRU builds a Glorot-initialized GRU cell.
func NewGRU(name string, in, hidden int, rng *rand.Rand) *GRU {
	g := &GRU{
		In: in, Hidden: hidden,
		Wz: NewParam(name+".Wz", hidden, in), Uz: NewParam(name+".Uz", hidden, hidden), Bz: NewParam(name+".bz", 1, hidden),
		Wr: NewParam(name+".Wr", hidden, in), Ur: NewParam(name+".Ur", hidden, hidden), Br: NewParam(name+".br", 1, hidden),
		Wn: NewParam(name+".Wn", hidden, in), Un: NewParam(name+".Un", hidden, hidden), Bn: NewParam(name+".bn", 1, hidden),
	}
	for _, p := range []*Param{g.Wz, g.Uz, g.Wr, g.Ur, g.Wn, g.Un} {
		p.GlorotInit(rng)
	}
	return g
}

// Params implements Module.
func (g *GRU) Params() []*Param {
	return []*Param{g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wn, g.Un, g.Bn}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

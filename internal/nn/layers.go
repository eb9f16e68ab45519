package nn

import (
	"math"
	"math/rand"
)

// Dense is a fully-connected layer y = Wx + b. Layers are stateless:
// training keeps inputs and activations on a tape (tape.go), whose batched
// backward kernels accumulate into W.Grad and B.Grad.
type Dense struct {
	W, B     *Param
	In, Outs int
}

// NewDense builds a Glorot-initialized dense layer.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{W: NewParam(name+".W", out, in), B: NewParam(name+".b", 1, out), In: in, Outs: out}
	d.W.GlorotInit(rng)
	return d
}

// Params implements Module.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// LayerNorm normalizes its input to zero mean / unit variance and applies a
// learned affine transform.
type LayerNorm struct {
	G, B *Param
	N    int
	Eps  float64
}

// NewLayerNorm builds a LayerNorm over n features (gain 1, bias 0).
func NewLayerNorm(name string, n int) *LayerNorm {
	ln := &LayerNorm{G: NewParam(name+".g", 1, n), B: NewParam(name+".b", 1, n), N: n, Eps: 1e-5}
	ln.G.Fill(1)
	return ln
}

// Params implements Module.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.G, ln.B} }

// Softmax returns the softmax of x (numerically stable).
func Softmax(x []float64) []float64 {
	y := make([]float64, len(x))
	softmaxInto(x, y)
	return y
}

// softmaxInto writes the softmax of x into y (len(y) == len(x)).
func softmaxInto(x, y []float64) {
	m := x[0]
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for i, v := range x {
		y[i] = math.Exp(v - m)
		s += y[i]
	}
	for i := range y {
		y[i] /= s
	}
}

// LogSumExp computes log Σ exp(x_i), numerically stable.
func LogSumExp(x []float64) float64 {
	m := x[0]
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// Package nn is a small, dependency-free neural-network library sized for
// the paper's architecture (Fig. 6): dense layers, LayerNorm, a GRU cell
// trained with truncated BPTT, residual blocks, a Gaussian-mixture policy
// head, a normalized-advantage (NAF) quadratic critic, and the Adam
// optimizer. All gradients are hand-derived; finite-difference tests in this
// package verify every backward pass.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a flat parameter tensor with its gradient accumulator.
type Param struct {
	Name string
	Rows int // output dimension (1 for vectors)
	Cols int // input dimension (length for vectors)
	Data []float64
	Grad []float64
}

// NewParam allocates a rows×cols parameter initialized to zero.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		Rows: rows,
		Cols: cols,
		Data: make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
	}
}

// GlorotInit fills the parameter with Glorot-uniform values.
func (p *Param) GlorotInit(rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(p.Rows+p.Cols))
	for i := range p.Data {
		p.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Fill sets every element to v.
func (p *Param) Fill(v float64) {
	for i := range p.Data {
		p.Data[i] = v
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []*Param
}

// ZeroGrads clears gradients of all parameters of a module.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// CopyParams copies src parameter data into dst (target-network sync).
// The two modules must have identical shapes.
func CopyParams(dst, src Module) {
	dp, sp := dst.Params(), src.Params()
	for i := range dp {
		copy(dp[i].Data, sp[i].Data)
	}
}

// ShareParams points dst's parameter values at src's storage, so dst reads
// src's weights as they change without a copy; dst's gradient accumulators
// stay its own. The two modules must have identical shapes.
func ShareParams(dst, src Module) {
	dp, sp := dst.Params(), src.Params()
	for i := range dp {
		dp[i].Data = sp[i].Data
	}
}

// DumpParams copies the parameter tensors of ms, in order: the one form in
// which models, checkpoints and parameter broadcasts carry weights.
func DumpParams(ms ...Module) [][]float64 {
	var out [][]float64
	for _, m := range ms {
		for _, p := range m.Params() {
			out = append(out, append([]float64(nil), p.Data...))
		}
	}
	return out
}

// LoadParams overwrites the parameters of ms, in order, from a DumpParams
// payload, refusing one whose tensor count or sizes differ.
func LoadParams(data [][]float64, ms ...Module) error {
	var ps []*Param
	for _, m := range ms {
		ps = append(ps, m.Params()...)
	}
	if len(ps) != len(data) {
		return fmt.Errorf("nn: %d parameter tensors, want %d", len(data), len(ps))
	}
	for i, p := range ps {
		if len(p.Data) != len(data[i]) {
			return fmt.Errorf("nn: parameter tensor %d has %d values, want %d", i, len(data[i]), len(p.Data))
		}
		copy(p.Data, data[i])
	}
	return nil
}

// PolyakUpdate blends dst ← (1−tau)·dst + tau·src.
func PolyakUpdate(dst, src Module, tau float64) {
	dp, sp := dst.Params(), src.Params()
	for i := range dp {
		for j := range dp[i].Data {
			dp[i].Data[j] = (1-tau)*dp[i].Data[j] + tau*sp[i].Data[j]
		}
	}
}

// ParamCount returns the total number of scalars in a module.
func ParamCount(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// GradNorm returns the L2 norm of all gradients of a module.
func GradNorm(m Module) float64 {
	s := 0.0
	for _, p := range m.Params() {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// FiniteParams reports whether every parameter of the module is finite —
// the corruption sweep guards and the training sentinel run between
// optimizer steps.
func FiniteParams(m Module) bool {
	for _, p := range m.Params() {
		for _, v := range p.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// ClipScale is the factor ClipGrads scales gradients of norm n (GradNorm) by
// to bring it to at most maxNorm, and false when they need no scaling.
func ClipScale(n, maxNorm float64) (float64, bool) {
	if n <= maxNorm || n == 0 {
		return 1, false
	}
	return maxNorm / n, true
}

// ClipGrads scales m's gradients, whose norm the caller has just computed as
// n = GradNorm(m), so their global norm is at most maxNorm. It reports
// whether it scaled them; when it did not, n is still their norm, bit for
// bit.
func ClipGrads(m Module, maxNorm, n float64) bool {
	f, clip := ClipScale(n, maxNorm)
	if clip {
		for _, p := range m.Params() {
			for i := range p.Grad {
				p.Grad[i] *= f
			}
		}
	}
	return clip
}

package nn

import (
	"fmt"
	"math"
)

// Adam is the Adam optimizer (Kingma & Ba 2015) over a module's parameters.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t        int
	bc1, bc2 float64 // bias corrections of step t
	m        map[*Param][]float64
	v        map[*Param][]float64
}

// NewAdam returns Adam with the standard β₁=0.9, β₂=0.999 moments.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64),
		v: make(map[*Param][]float64),
	}
}

// Step applies one update using the accumulated gradients, then clears them.
func (a *Adam) Step(mod Module) {
	a.Advance(mod)
	for _, p := range mod.Params() {
		a.Update(p)
	}
}

// Advance opens step t+1 over mod's parameters: Update then applies it to
// each of them exactly once, in any order and from any goroutines (Update
// only reads the optimizer's own state). Step is Advance plus every Update.
func (a *Adam) Advance(mod Module) {
	a.t++
	a.bc1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.bc2 = 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range mod.Params() {
		if _, ok := a.m[p]; !ok {
			a.m[p] = make([]float64, len(p.Data))
		}
		if _, ok := a.v[p]; !ok {
			a.v[p] = make([]float64, len(p.Data))
		}
	}
}

// Update applies the step Advance opened to p and clears p's gradient, each
// element as the update reads it: one pass over the gradient.
func (a *Adam) Update(p *Param) {
	// Locals, not fields, in the loop: the stores to p.Data could alias a's
	// fields as far as the compiler knows, which would reload them each time.
	b1, b2, lr, eps, bc1, bc2 := a.Beta1, a.Beta2, a.LR, a.Eps, a.bc1, a.bc2
	grad := p.Grad
	n := len(grad)
	m, v, data := a.m[p][:n], a.v[p][:n], p.Data[:n]
	for i, g := range grad {
		m[i] = float64(b1*m[i]) + float64((1-b1)*g)
		v[i] = float64(b2*v[i]) + float64((1-b2)*g*g)
		data[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + eps)
		grad[i] = 0
	}
}

// AdamState is the optimizer's serializable state over one module's
// parameters, in Params() order. Checkpoints persist it so a resumed
// training run applies bitwise-identical updates — without the moments,
// Adam re-warms over a few hundred steps and the resumed loss curve
// diverges from the uninterrupted one.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State snapshots the optimizer state for mod's parameters. Parameters the
// optimizer has never stepped snapshot as empty slices.
func (a *Adam) State(mod Module) AdamState {
	st := AdamState{T: a.t}
	for _, p := range mod.Params() {
		st.M = append(st.M, append([]float64(nil), a.m[p]...))
		st.V = append(st.V, append([]float64(nil), a.v[p]...))
	}
	return st
}

// Restore re-installs a snapshot taken with State onto mod's parameters.
// A zero-value AdamState resets to a fresh optimizer (legacy checkpoints
// that did not persist moments).
func (a *Adam) Restore(mod Module, st AdamState) error {
	ps := mod.Params()
	a.m = make(map[*Param][]float64, len(ps))
	a.v = make(map[*Param][]float64, len(ps))
	a.t = st.T
	if st.M == nil && st.V == nil {
		return nil
	}
	if len(st.M) != len(ps) || len(st.V) != len(ps) {
		return fmt.Errorf("nn: adam state has %d/%d tensors, module has %d", len(st.M), len(st.V), len(ps))
	}
	for i, p := range ps {
		if len(st.M[i]) == 0 && len(st.V[i]) == 0 {
			continue // never stepped at save time
		}
		if len(st.M[i]) != len(p.Data) || len(st.V[i]) != len(p.Data) {
			return fmt.Errorf("nn: adam state tensor %d size mismatch (%d vs %d)", i, len(st.M[i]), len(p.Data))
		}
		a.m[p] = append([]float64(nil), st.M[i]...)
		a.v[p] = append([]float64(nil), st.V[i]...)
	}
	return nil
}

// Normalizer standardizes feature vectors with statistics estimated from the
// pool (the model ships with them, so deployment needs no environment
// knowledge).
type Normalizer struct {
	Mean []float64
	Std  []float64
}

// FitNormalizer estimates per-feature mean and standard deviation.
// Non-finite values are excluded per feature: one NaN/Inf observation in
// a poisoned trajectory must not corrupt the statistics every state in
// the pool is standardized with. On all-finite data the result is
// bitwise-identical to the naive fit.
func FitNormalizer(samples [][]float64) *Normalizer {
	if len(samples) == 0 {
		return &Normalizer{}
	}
	dim := len(samples[0])
	n := &Normalizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	cnt := make([]float64, dim)
	for _, s := range samples {
		for i, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			n.Mean[i] += v
			cnt[i]++
		}
	}
	for i := range n.Mean {
		if cnt[i] > 0 {
			n.Mean[i] /= cnt[i]
		}
	}
	for _, s := range samples {
		for i, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d := v - n.Mean[i]
			n.Std[i] += float64(d * d)
		}
	}
	for i := range n.Std {
		if cnt[i] > 0 {
			n.Std[i] = math.Sqrt(n.Std[i] / cnt[i])
		}
		if n.Std[i] < 1e-6 {
			n.Std[i] = 1
		}
	}
	return n
}

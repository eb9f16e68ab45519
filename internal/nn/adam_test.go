package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// params is a Module of the parameters listed.
type params []*Param

func (l params) Params() []*Param { return l }

// TestAdamUpdateMatchesScalar holds Adam.Update — four elements at a time
// with AVX2, the last len%4 in the scalar loop — to the scalar update, bit
// for bit (any two NaNs matching) at both kernel tiers: lengths 0–9 and
// 1 000, over the first steps and a late one, with ±0, ±Inf and NaN among
// the gradients, moments and weights; every gradient is cleared to +0.
func TestAdamUpdateMatchesScalar(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(53))
	value := func() float64 {
		if rng.Intn(6) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	kernelTiers(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000} {
			p := NewParam("p", 1, n)
			a := NewAdam(3e-4)
			for step := 1; step <= 3; step++ {
				if step == 3 {
					a.t = 4999 // bias corrections near 1
				}
				a.Advance(params{p})
				for i := range p.Data {
					p.Data[i], p.Grad[i], a.m[p][i], a.v[p][i] = value(), value(), value(), math.Abs(value())
				}
				if n > 0 {
					a.v[p][rng.Intn(n)] = value() // a negative second moment: sqrt is NaN
				}
				data, m, v := append([]float64(nil), p.Data...), append([]float64(nil), a.m[p]...), append([]float64(nil), a.v[p]...)
				b1, b2, lr, eps, bc1, bc2 := a.Beta1, a.Beta2, a.LR, a.Eps, a.bc1, a.bc2
				for i, g := range p.Grad {
					m[i] = float64(b1*m[i]) + float64((1-b1)*g)
					v[i] = float64(b2*v[i]) + float64((1-b2)*g*g)
					data[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + eps)
				}
				a.Update(p)
				for i := range data {
					what := fmt.Sprintf("n=%d step %d element %d", n, a.t, i)
					if !sameOrNaN(p.Data[i], data[i]) || !sameOrNaN(a.m[p][i], m[i]) || !sameOrNaN(a.v[p][i], v[i]) {
						t.Fatalf("%s: data/m/v %v/%v/%v, scalar %v/%v/%v", what, p.Data[i], a.m[p][i], a.v[p][i], data[i], m[i], v[i])
					}
					if math.Float64bits(p.Grad[i]) != 0 {
						t.Fatalf("%s: gradient %v not cleared", what, p.Grad[i])
					}
				}
			}
		}
	})
}

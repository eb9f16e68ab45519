package chaos

import (
	"math"
	"testing"

	"sage/internal/nn"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// controllerFunc adapts a closure to rollout.Controller.
type controllerFunc func()

func (f controllerFunc) Control(sim.Time, *tcp.Conn, []float64) { f() }

func allNaN(pol *nn.Policy) bool {
	for _, p := range pol.Params() {
		for _, v := range p.Data {
			if !math.IsNaN(v) {
				return false
			}
		}
	}
	return true
}

func TestPoisonAndHealPolicyRoundTrip(t *testing.T) {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: 4, Enc: 6, Hidden: 3, K: 2, Seed: 3})
	var orig [][]float64
	for _, p := range pol.Params() {
		orig = append(orig, append([]float64(nil), p.Data...))
	}

	snap := PoisonPolicy(pol)
	if !allNaN(pol) {
		t.Fatal("poison left finite parameters behind")
	}

	HealPolicy(pol, snap)
	for i, p := range pol.Params() {
		for j, v := range p.Data {
			if v != orig[i][j] {
				t.Fatalf("param %d[%d] = %v after heal, want %v", i, j, v, orig[i][j])
			}
		}
	}
}

func TestNaNInjectorPoisonsAndHealsOnSchedule(t *testing.T) {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: 4, Enc: 6, Hidden: 3, K: 2, Seed: 3})
	called := 0
	inj := &NaNInjector{
		Inner:       controllerFunc(func() { called++ }),
		Policy:      pol,
		PoisonAfter: 3,
		HealAfter:   5,
	}
	for tick := 1; tick <= 6; tick++ {
		inj.Control(0, nil, nil)
		switch {
		case tick < 3:
			if inj.Poisoned() {
				t.Fatalf("tick %d: poisoned early", tick)
			}
		case tick < 5:
			if !inj.Poisoned() || !allNaN(pol) {
				t.Fatalf("tick %d: not poisoned", tick)
			}
		default:
			if inj.Poisoned() || allNaN(pol) {
				t.Fatalf("tick %d: not healed", tick)
			}
		}
	}
	if called != 6 {
		t.Fatalf("inner called %d times", called)
	}
	inj.Reset() // must not panic on a Reset-less inner
}

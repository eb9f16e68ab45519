package chaos

import (
	"math"

	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// PoisonPolicy overwrites every parameter of pol with NaN and returns a
// snapshot of the original values for HealPolicy — the runtime analogue
// of the filesystem faults above: a corrupted model serving live traffic.
func PoisonPolicy(pol *nn.Policy) [][]float64 {
	var snap [][]float64
	for _, p := range pol.Params() {
		snap = append(snap, append([]float64(nil), p.Data...))
		for i := range p.Data {
			p.Data[i] = math.NaN()
		}
	}
	return snap
}

// HealPolicy restores parameters captured by PoisonPolicy.
func HealPolicy(pol *nn.Policy, snap [][]float64) {
	for i, p := range pol.Params() {
		if i < len(snap) {
			copy(p.Data, snap[i])
		}
	}
}

// NaNInjector wraps a policy-driven controller and poisons the policy's
// weights with NaN after PoisonAfter control ticks, optionally healing
// them HealAfter ticks later. It lets tests drive the exact failure the
// runtime guardian exists for: a model that corrupts mid-flight (bit
// flip, bad checkpoint hot-swap, overflowing activation) and later comes
// back. The zero HealAfter never heals.
type NaNInjector struct {
	Inner       rollout.Controller
	Policy      *nn.Policy
	PoisonAfter int // poison before the Nth control tick (1-based)
	HealAfter   int // heal before this tick (0 = never)

	ticks    int
	poisoned bool
	healed   bool
	snap     [][]float64
}

// Control implements rollout.Controller.
func (inj *NaNInjector) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	inj.ticks++
	if !inj.poisoned && inj.ticks >= inj.PoisonAfter {
		inj.snap = PoisonPolicy(inj.Policy)
		inj.poisoned = true
	}
	if inj.poisoned && !inj.healed && inj.HealAfter > 0 && inj.ticks >= inj.HealAfter {
		HealPolicy(inj.Policy, inj.snap)
		inj.healed = true
	}
	inj.Inner.Control(now, conn, state)
}

// Reset forwards to the wrapped controller (so guardian re-admission
// still clears the policy's recurrent state through the injector).
func (inj *NaNInjector) Reset() {
	if r, ok := inj.Inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// Poisoned reports whether the weights have been overwritten (and not yet
// healed).
func (inj *NaNInjector) Poisoned() bool { return inj.poisoned && !inj.healed }

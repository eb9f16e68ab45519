package nn

import (
	"math"
	"math/rand"
	"testing"
)

// nafTD runs one batched TD backward: row r regresses Q(states[r], a[r])
// onto y[r].
func nafTD(c *NAFCritic, t *NAFTape, states [][]float64, a, y []float64) float64 {
	t.Reset(len(states), c.Cfg.InDim)
	for r, s := range states {
		t.X.SetRow(r, s)
	}
	copy(t.A, a)
	copy(t.Y, y)
	c.BatchForward(t)
	order := make([]int, len(states))
	for r := range order {
		order[r] = r
	}
	return c.TDBackward(t, order, 1)
}

func TestNAFGradients(t *testing.T) {
	c := NewNAFCritic(NAFConfig{InDim: 4, Hidden: 8, Seed: 3})
	states := [][]float64{{1, -0.5, 2, 0.3}, {-0.2, 0.9, 0.1, -1.5}, {0.4, 0.4, -2, 0}}
	a, y := []float64{0.4, -0.7, 0.1}, []float64{1.7, 0.2, 3}
	loss := func() float64 {
		s := 0.0
		for r := range states {
			q := c.Q(states[r], a[r])
			s += 0.5 * (q - y[r]) * (q - y[r])
		}
		return s
	}
	var tape NAFTape
	checkModuleGrads(t, c, loss, func() { nafTD(c, &tape, states, a, y) }, 1e-3)
}

func TestNAFQuadraticShape(t *testing.T) {
	c := NewNAFCritic(NAFConfig{InDim: 2, Hidden: 8, Seed: 5})
	s := []float64{0.5, -1}
	m, v := c.Greedy(s)
	if m < -1 || m > 1 {
		t.Fatalf("maximizer %v outside tanh range", m)
	}
	// Q is maximized at m and concave.
	qm := c.Q(s, m)
	if qm > v+1e-9 {
		t.Fatalf("Q(m)=%v exceeds V=%v", qm, v)
	}
	for _, d := range []float64{0.2, 0.5, 1} {
		if c.Q(s, m+d) > qm+1e-12 || c.Q(s, m-d) > qm+1e-12 {
			t.Fatalf("Q not maximized at m")
		}
		if c.Q(s, m+d) < c.Q(s, m+d/2)-1e-12 == false && c.Q(s, m+d) > c.Q(s, m+d/2) {
			t.Fatalf("Q not concave away from m")
		}
	}
}

func TestNAFLearnsQuadratic(t *testing.T) {
	// Fit Q(s,a) with true optimum depending on the state's sign:
	// y = 4 − (a − 0.5·s₀)² (kept positive so the [0, VMax] target clamp
	// stays inactive).
	c := NewNAFCritic(NAFConfig{InDim: 1, Hidden: 16, Seed: 7})
	opt := NewAdam(0.01)
	rng := rand.New(rand.NewSource(11))
	var tape NAFTape
	states, as, ys := make([][]float64, 8), make([]float64, 8), make([]float64, 8)
	for step := 0; step < 3000/8; step++ {
		for r := range states {
			s0 := float64(rng.Intn(2)*2 - 1) // ±1
			a := rng.Float64()*2 - 1
			states[r], as[r], ys[r] = []float64{s0}, a, 4-(a-0.5*s0)*(a-0.5*s0)
		}
		nafTD(c, &tape, states, as, ys)
		opt.Step(c)
	}
	mPos, _ := c.Greedy([]float64{1})
	mNeg, _ := c.Greedy([]float64{-1})
	if math.Abs(mPos-0.5) > 0.15 || math.Abs(mNeg+0.5) > 0.15 {
		t.Fatalf("learned maximizers %v, %v; want ±0.5", mPos, mNeg)
	}
	if q := c.Q([]float64{1}, 0.5); math.Abs(q-4) > 0.3 {
		t.Fatalf("Q at optimum %v, want ~4", q)
	}
}

func TestCloneNAF(t *testing.T) {
	c := NewNAFCritic(NAFConfig{InDim: 2, Hidden: 4, Seed: 1})
	q := CloneNAF(c)
	s := []float64{1, 2}
	if c.Q(s, 0.3) != q.Q(s, 0.3) {
		t.Fatal("clone diverges")
	}
}

// The critic's batched forward — one row included, which is all Q and the
// cold callers run — must match the scalar oracle bit for bit at every
// kernel tier.
func TestNAFBatchForwardMatchesSequential(t *testing.T) {
	cfg := NAFConfig{InDim: 69, Hidden: 64, Seed: 1}
	eachKernelTier(t, func(t *testing.T, B int) {
		rng := rand.New(rand.NewSource(int64(B)))
		c := NewNAFCritic(cfg)
		var fit [][]float64
		for i := 0; i < 16; i++ {
			fit = append(fit, randVec(rng, cfg.InDim))
		}
		c.Norm = FitNormalizer(fit)
		var tape NAFTape
		tape.Reset(B, cfg.InDim)
		copy(tape.X.Data, randVec(rng, len(tape.X.Data)))
		c.BatchForward(&tape)
		for r := 0; r < B; r++ {
			a := rng.Float64()*2 - 1
			ca := c.forwardCached(tape.X.Row(r), a)
			if !sameBits(ca.v, tape.V[r]) || !sameBits(ca.m, tape.M[r]) || !sameBits(ca.p, tape.P[r]) {
				t.Fatalf("row %d: batched (v,m,p) = (%v,%v,%v), oracle (%v,%v,%v)", r, tape.V[r], tape.M[r], tape.P[r], ca.v, ca.m, ca.p)
			}
			if q := c.Q(tape.X.Row(r), a); !sameBits(q, ca.q) || !sameBits(tape.Q(r, a), ca.q) {
				t.Fatalf("row %d: Q %v, tape Q %v, oracle %v", r, q, tape.Q(r, a), ca.q)
			}
		}
	})
}

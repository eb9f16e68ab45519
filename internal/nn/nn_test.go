package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numGrad computes a central finite difference of f wrt p.Data[i].
func numGrad(p *Param, i int, f func() float64) float64 {
	const h = 1e-6
	old := p.Data[i]
	p.Data[i] = old + h
	up := f()
	p.Data[i] = old - h
	down := f()
	p.Data[i] = old
	return (up - down) / (2 * h)
}

func checkModuleGrads(t *testing.T, m Module, loss func() float64, backward func(), tol float64) {
	t.Helper()
	ZeroGrads(m)
	backward()
	rng := rand.New(rand.NewSource(5))
	for _, p := range m.Params() {
		// Sample a few indices per tensor; full sweeps are slow.
		for trial := 0; trial < 4; trial++ {
			i := rng.Intn(len(p.Data))
			want := numGrad(p, i, loss)
			got := p.Grad[i]
			if math.Abs(want-got) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", p.Name, i, got, want)
			}
		}
	}
}

// denseBatch runs d over the rows of x through the training kernels and
// returns the outputs; backward accumulates d's gradients for dY and returns
// the input gradient.
func denseBatch(d *Dense, x *Mat) *Mat {
	out := &Mat{}
	d.batchForward(x, out, &gemmScratch{})
	return out
}

func denseBatchBackward(d *Dense, x, dY *Mat) *Mat {
	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}
	var sc gemmScratch
	gradAcc(d.W, d.B, dY, x, order, &sc)
	dX := NewMat(x.Rows, d.In)
	backMulAcc(d.W, dY, dX, &sc)
	return dX
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 4, 3, rng)
	x := NewMat(5, 4)
	copy(x.Data, randVec(rng, len(x.Data)))
	// loss = sum of squares of the outputs of every row
	loss := func() float64 {
		s := 0.0
		for _, v := range denseBatch(d, x).Data {
			s += v * v
		}
		return s
	}
	checkModuleGrads(t, d, loss, func() {
		dY := denseBatch(d, x)
		for i, v := range dY.Data {
			dY.Data[i] = 2 * v
		}
		denseBatchBackward(d, x, dY)
	}, 1e-4)
}

func TestDenseInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense("d", 3, 2, rng)
	x := NewMat(1, 3)
	copy(x.Data, []float64{1, -0.5, 0.25})
	y := append([]float64(nil), denseBatch(d, x).Data...)
	dY := NewMat(1, 2)
	copy(dY.Data, []float64{1, -1})
	dx := denseBatchBackward(d, x, dY).Data
	for j := range x.Data {
		h := 1e-6
		x2 := NewMat(1, 3)
		copy(x2.Data, x.Data)
		x2.Data[j] += h
		y2 := denseBatch(d, x2).Data
		num := ((y2[0] - y[0]) - (y2[1] - y[1])) / h
		if math.Abs(num-dx[j]) > 1e-4 {
			t.Fatalf("dx[%d] = %g, numeric %g", j, dx[j], num)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	ln := NewLayerNorm("ln", 5)
	rng := rand.New(rand.NewSource(3))
	for i := range ln.G.Data {
		ln.G.Data[i] = 1 + 0.1*rng.Float64()
		ln.B.Data[i] = 0.1 * rng.NormFloat64()
	}
	x := NewMat(2, 5)
	copy(x.Data, []float64{0.3, -1.2, 0.8, 2.0, -0.5, 1.1, 0.4, -0.9, 0.2, 0.6})
	target := []float64{1, 0, -1, 0.5, 0.2, -0.3, 0.8, 0, 1, -1}
	var tape lnTape
	lossOf := func(x *Mat) float64 {
		var y Mat
		ln.forwardTape(x, &y, &tape)
		s := 0.0
		for i, v := range y.Data {
			d := v - target[i]
			s += d * d
		}
		return s
	}
	// backward returns the input gradient.
	backward := func() *Mat {
		var d Mat
		ln.forwardTape(x, &d, &tape)
		for i, v := range d.Data {
			d.Data[i] = 2 * (v - target[i])
		}
		ln.backwardTape(&tape, &d, []int{0, 1})
		return &d
	}
	checkModuleGrads(t, ln, func() float64 { return lossOf(x) }, func() { backward() }, 1e-4)

	dx := backward().Data
	for j := range x.Data {
		h := 1e-6
		x2 := NewMat(2, 5)
		copy(x2.Data, x.Data)
		x2.Data[j] += h
		num := (lossOf(x2) - lossOf(x)) / h
		if math.Abs(num-dx[j]) > 1e-3 {
			t.Fatalf("ln dx[%d] = %g, numeric %g", j, dx[j], num)
		}
	}
}

// gruTape runs g over x — B·T time-major input rows — on a fresh tape.
func gruTape(g *GRU, x *Mat, B, T int) *PolicyTape {
	t := &PolicyTape{}
	t.Reset(B, T, g.In)
	t.e2 = *x
	g.forwardTape(t, nil)
	return t
}

// gruLoss is the sum of squares of every step's new hidden state.
func gruLoss(g *GRU, x *Mat, B, T int) float64 {
	t := gruTape(g, x, B, T)
	s := 0.0
	for _, v := range t.h.Data[B*g.Hidden:] {
		s += v * v
	}
	return s
}

// Two sequences of three steps: the recurrent weights only see a gradient
// through the second and third steps, and the first step's parameters see
// the last step's loss only through the hidden-state gradient BPTT carries
// back.
func TestGRUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGRU("g", 3, 4, rng)
	const B, T = 2, 3
	x := NewMat(B*T, 3)
	copy(x.Data, randVec(rng, len(x.Data)))
	backward := func() *Mat {
		tape := gruTape(g, x, B, T)
		dh := NewMat(B*T, g.Hidden)
		for i, v := range tape.h.Data[B*g.Hidden:] {
			dh.Data[i] = 2 * v
		}
		return g.backwardTape(tape, dh)
	}
	checkModuleGrads(t, g, func() float64 { return gruLoss(g, x, B, T) }, func() { backward() }, 1e-4)

	dx := backward().Data
	const eps = 1e-6
	for j := range x.Data {
		x2 := NewMat(B*T, 3)
		copy(x2.Data, x.Data)
		x2.Data[j] += eps
		if num := (gruLoss(g, x2, B, T) - gruLoss(g, x, B, T)) / eps; math.Abs(num-dx[j]) > 1e-3 {
			t.Fatalf("gru dx[%d] = %g, numeric %g", j, dx[j], num)
		}
	}
}

func TestGMMLogProbGrad(t *testing.T) {
	g := GMM{K: 3}
	rng := rand.New(rand.NewSource(6))
	p := make([]float64, g.HeadDim())
	for i := range p {
		p[i] = rng.NormFloat64() * 0.5
	}
	a := 0.3
	dp := make([]float64, g.HeadDim())
	logp := g.LogProbGrad(p, a, dp)
	if math.Abs(logp-g.LogProb(p, a)) > 1e-12 {
		t.Fatal("LogProb and LogProbGrad disagree")
	}
	const h = 1e-6
	for i := range p {
		p2 := append([]float64(nil), p...)
		p2[i] += h
		num := (g.LogProb(p2, a) - logp) / h
		if math.Abs(num-dp[i]) > 1e-3 {
			t.Fatalf("dp[%d] = %g, numeric %g", i, dp[i], num)
		}
	}
}

func TestGMMSampleDistribution(t *testing.T) {
	g := GMM{K: 2}
	// Two well-separated components with equal weight.
	p := []float64{0, 0, -1, 1, -3, -3} // logits 0,0; means -1,1; logstd -3
	rng := rand.New(rand.NewSource(7))
	nLeft := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if g.Sample(p, rng) < 0 {
			nLeft++
		}
	}
	if nLeft < n/3 || nLeft > 2*n/3 {
		t.Fatalf("component balance off: %d/%d", nLeft, n)
	}
	if m := g.Mean(p); math.Abs(m) > 1e-9 {
		t.Fatalf("mixture mean = %v", m)
	}
	if mode := g.Mode(p); mode != -1 && mode != 1 {
		t.Fatalf("mode = %v", mode)
	}
}

// tapeNLL runs p over one sequence of states on a fresh tape and returns the
// tape with −Σ logπ(actions); with backward set it also accumulates the
// loss's parameter gradients.
func tapeNLL(p *Policy, states [][]float64, actions []float64, backward bool) (*PolicyTape, float64) {
	t := &PolicyTape{}
	t.Reset(1, len(states), p.Cfg.InDim)
	for i, s := range states {
		t.X.SetRow(t.Row(0, i), s)
	}
	p.ForwardTape(t)
	nll := 0.0
	for i, a := range actions {
		dp := t.DHeads.Row(t.Row(0, i))
		nll -= p.GMM.LogProbGrad(t.Heads.Row(t.Row(0, i)), a, dp)
		for k := range dp {
			dp[k] = -dp[k]
		}
	}
	if backward {
		p.BackwardTape(t)
	}
	return t, nll
}

func TestPolicyForwardBackwardGradients(t *testing.T) {
	cfg := PolicyConfig{InDim: 6, Enc: 8, Hidden: 5, ResBlocks: 2, K: 2, Seed: 11}
	p := NewPolicy(cfg)
	states := [][]float64{{1, -2, 0.5, 3, -0.1, 0.7}}
	actions := []float64{0.2}
	loss := func() float64 {
		head, _, _ := p.forwardCached(states[0], p.InitHidden())
		return -p.GMM.LogProb(head, actions[0])
	}
	checkModuleGrads(t, p, loss, func() { tapeNLL(p, states, actions, true) }, 2e-3)
}

func TestPolicyBPTTHiddenGradient(t *testing.T) {
	cfg := PolicyConfig{InDim: 3, Enc: 6, Hidden: 4, ResBlocks: 1, K: 2, Seed: 12}
	p := NewPolicy(cfg)
	states := [][]float64{{0.5, -1, 2}, {-0.3, 0.8, 0.1}}
	actions := []float64{0.1, -0.4}
	// Two-step BPTT loss.
	loss := func() float64 {
		head1, h1, _ := p.forwardCached(states[0], p.InitHidden())
		head2, _, _ := p.forwardCached(states[1], h1)
		return -p.GMM.LogProb(head1, actions[0]) - p.GMM.LogProb(head2, actions[1])
	}
	checkModuleGrads(t, p, loss, func() { tapeNLL(p, states, actions, true) }, 5e-3)
}

func TestPolicyAblationVariants(t *testing.T) {
	base := PolicyConfig{InDim: 4, Enc: 6, Hidden: 5, ResBlocks: 1, K: 2, Seed: 1}
	variants := []PolicyConfig{
		base,
		{InDim: 4, Enc: 6, ResBlocks: 1, K: 2, NoGRU: true, Seed: 1},
		{InDim: 4, Enc: 6, Hidden: 5, ResBlocks: 1, K: 2, NoEncoder: true, Seed: 1},
		{InDim: 4, Enc: 6, Hidden: 5, ResBlocks: 1, K: 1, Seed: 1}, // no GMM
	}
	for i, cfg := range variants {
		p := NewPolicy(cfg)
		state := []float64{1, 2, 3, 4}
		head, h, c := p.forwardCached(state, p.InitHidden())
		if len(head) != 3*p.Cfg.K {
			t.Fatalf("variant %d: head dim %d", i, len(head))
		}
		if cfg.NoGRU && h != nil {
			t.Fatalf("variant %d: NoGRU produced hidden state", i)
		}
		tape, _ := tapeNLL(p, [][]float64{state}, []float64{0.3}, true)
		for k, v := range tape.Heads.Row(0) {
			if v != head[k] {
				t.Fatalf("variant %d: tape head[%d] = %v, Forward %v", i, k, v, head[k])
			}
		}
		if GradNorm(p) == 0 {
			t.Fatalf("variant %d: backward left no gradient", i)
		}
		if len(c.resOut) != p.Cfg.Enc {
			t.Fatalf("variant %d: last hidden dim", i)
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDense("d", 2, 1, rng)
	opt := NewAdam(0.05)
	// Fit y = 3x1 - 2x2 + 1.
	data := [][3]float64{}
	for i := 0; i < 64; i++ {
		x1, x2 := rng.NormFloat64(), rng.NormFloat64()
		data = append(data, [3]float64{x1, x2, 3*x1 - 2*x2 + 1})
	}
	lossAt := func() float64 {
		s := 0.0
		for _, r := range data {
			y := d.Forward([]float64{r[0], r[1]})
			e := y[0] - r[2]
			s += e * e
		}
		return s / float64(len(data))
	}
	before := lossAt()
	for epoch := 0; epoch < 300; epoch++ {
		for _, r := range data {
			x := []float64{r[0], r[1]}
			y := d.Forward(x)
			d.Backward(x, []float64{2 * (y[0] - r[2]) / float64(len(data))})
		}
		opt.Step(d)
	}
	after := lossAt()
	if after > before/100 || after > 0.01 {
		t.Fatalf("Adam failed to fit: %g -> %g", before, after)
	}
	if math.Abs(d.W.Data[0]-3) > 0.1 || math.Abs(d.W.Data[1]+2) > 0.1 || math.Abs(d.B.Data[0]-1) > 0.1 {
		t.Fatalf("fit params %v %v", d.W.Data, d.B.Data)
	}
}

func TestNormalizer(t *testing.T) {
	samples := [][]float64{{1, 100}, {3, 300}, {5, 500}}
	n := FitNormalizer(samples)
	y := n.Apply([]float64{3, 300})
	if math.Abs(y[0]) > 1e-9 || math.Abs(y[1]) > 1e-9 {
		t.Fatalf("mean not centered: %v", y)
	}
	y = n.Apply([]float64{1e9, -1e9})
	if y[0] != 10 || y[1] != -10 {
		t.Fatalf("clipping failed: %v", y)
	}
	if got := FitNormalizer(nil); len(got.Mean) != 0 {
		t.Fatal("empty fit")
	}
	// Constant feature: std floors to 1 so Apply stays finite.
	n2 := FitNormalizer([][]float64{{7}, {7}})
	if v := n2.Apply([]float64{7})[0]; v != 0 {
		t.Fatalf("constant feature normalized to %v", v)
	}
}

func TestTargetNetworkSync(t *testing.T) {
	p := NewPolicy(PolicyConfig{InDim: 3, Enc: 4, Hidden: 3, K: 2, Seed: 1})
	q := ClonePolicy(p)
	s := []float64{1, 2, 3}
	h1, _, _ := p.forwardCached(s, p.InitHidden())
	h2, _, _ := q.forwardCached(s, q.InitHidden())
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("clone diverges")
		}
	}
	// Perturb p, then Polyak-track it.
	p.Params()[0].Data[0] += 1
	PolyakUpdate(q, p, 0.5)
	if got := q.Params()[0].Data[0]; math.Abs(got-(h1[0]*0+p.Params()[0].Data[0]-0.5)) > 1e-9 {
		t.Fatalf("polyak = %v", got)
	}
	CopyParams(q, p)
	if q.Params()[0].Data[0] != p.Params()[0].Data[0] {
		t.Fatal("copy failed")
	}
	if ParamCount(p) == 0 {
		t.Fatal("param count")
	}
}

func TestClipGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDense("d", 2, 2, rng)
	for i := range d.W.Grad {
		d.W.Grad[i] = 100
	}
	if !ClipGrads(d, 1, GradNorm(d)) {
		t.Fatal("norm 200 not clipped to 1")
	}
	n := GradNorm(d)
	if math.Abs(n-1) > 1e-9 {
		t.Fatalf("grad norm after clip = %v", n)
	}
	// Under the threshold nothing moves, so the norm the caller holds is
	// still the post-clip norm, bit for bit.
	before := append([]float64(nil), d.W.Grad...)
	if ClipGrads(d, 2, n) {
		t.Fatalf("norm %v clipped at 2", n)
	}
	for i, g := range d.W.Grad {
		if !sameBits(g, before[i]) {
			t.Fatalf("W.Grad[%d] moved: %v → %v", i, before[i], g)
		}
	}
	if !sameBits(GradNorm(d), n) {
		t.Fatalf("unclipped norm %v, held %v", GradNorm(d), n)
	}
}

// Property: softmax output is a probability distribution for any input.
func TestSoftmaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			x[i] = math.Mod(v, 50)
		}
		y := Softmax(x)
		s := 0.0
		for _, v := range y {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: GMM LogProb integrates sensibly — probability mass near the
// means exceeds mass far away.
func TestGMMMassConcentration(t *testing.T) {
	g := GMM{K: 2}
	p := []float64{0, 0, -0.5, 0.5, -2, -2}
	near := g.LogProb(p, 0.5)
	far := g.LogProb(p, 30)
	if near <= far {
		t.Fatalf("logp near %v <= far %v", near, far)
	}
}

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

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 4, 3, rng)
	x := []float64{0.5, -1, 2, 0.1}
	// loss = sum of squares of output
	loss := func() float64 {
		y := d.Forward(x)
		s := 0.0
		for _, v := range y {
			s += v * v
		}
		return s
	}
	checkModuleGrads(t, d, loss, func() {
		y := d.Forward(x)
		dy := make([]float64, len(y))
		for i := range y {
			dy[i] = 2 * y[i]
		}
		d.Backward(x, dy)
	}, 1e-4)
}

func TestDenseInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense("d", 3, 2, rng)
	x := []float64{1, -0.5, 0.25}
	y := d.Forward(x)
	dy := []float64{1, -1}
	dx := d.Backward(x, dy)
	for j := range x {
		h := 1e-6
		x2 := append([]float64(nil), x...)
		x2[j] += h
		y2 := d.Forward(x2)
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
	x := []float64{0.3, -1.2, 0.8, 2.0, -0.5}
	target := []float64{1, 0, -1, 0.5, 0.2}
	loss := func() float64 {
		y, _ := ln.Forward(x)
		s := 0.0
		for i := range y {
			d := y[i] - target[i]
			s += d * d
		}
		return s
	}
	checkModuleGrads(t, ln, loss, func() {
		y, c := ln.Forward(x)
		dy := make([]float64, len(y))
		for i := range y {
			dy[i] = 2 * (y[i] - target[i])
		}
		ln.Backward(c, dy)
	}, 1e-4)

	// Input gradient.
	y, c := ln.Forward(x)
	dy := make([]float64, len(y))
	for i := range y {
		dy[i] = 2 * (y[i] - target[i])
	}
	dx := ln.Backward(c, dy)
	for j := range x {
		h := 1e-6
		x2 := append([]float64(nil), x...)
		x2[j] += h
		num := (lossOf(ln, x2, target) - lossOf(ln, x, target)) / h
		if math.Abs(num-dx[j]) > 1e-3 {
			t.Fatalf("ln dx[%d] = %g, numeric %g", j, dx[j], num)
		}
	}
}

func lossOf(ln *LayerNorm, x, target []float64) float64 {
	y, _ := ln.Forward(x)
	s := 0.0
	for i := range y {
		d := y[i] - target[i]
		s += d * d
	}
	return s
}

func TestGRUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGRU("g", 3, 4, rng)
	x := []float64{0.5, -0.3, 1.1}
	h := []float64{0.2, -0.1, 0.4, 0}
	loss := func() float64 {
		hn, _ := g.Forward(x, h)
		s := 0.0
		for _, v := range hn {
			s += v * v
		}
		return s
	}
	checkModuleGrads(t, g, loss, func() {
		hn, c := g.Forward(x, h)
		dh := make([]float64, len(hn))
		for i := range hn {
			dh[i] = 2 * hn[i]
		}
		g.Backward(c, dh)
	}, 1e-4)

	// dx and dhPrev.
	hn, c := g.Forward(x, h)
	dhn := make([]float64, len(hn))
	for i := range hn {
		dhn[i] = 2 * hn[i]
	}
	dx, dhp := g.Backward(c, dhn)
	const eps = 1e-6
	for j := range x {
		x2 := append([]float64(nil), x...)
		x2[j] += eps
		if num := (gruLoss(g, x2, h) - gruLoss(g, x, h)) / eps; math.Abs(num-dx[j]) > 1e-3 {
			t.Fatalf("gru dx[%d] = %g, numeric %g", j, dx[j], num)
		}
	}
	for j := range h {
		h2 := append([]float64(nil), h...)
		h2[j] += eps
		if num := (gruLoss(g, x, h2) - gruLoss(g, x, h)) / eps; math.Abs(num-dhp[j]) > 1e-3 {
			t.Fatalf("gru dh[%d] = %g, numeric %g", j, dhp[j], num)
		}
	}
}

func gruLoss(g *GRU, x, h []float64) float64 {
	hn, _ := g.Forward(x, h)
	s := 0.0
	for _, v := range hn {
		s += v * v
	}
	return s
}

func TestGMMLogProbGrad(t *testing.T) {
	g := GMM{K: 3}
	rng := rand.New(rand.NewSource(6))
	p := make([]float64, g.HeadDim())
	for i := range p {
		p[i] = rng.NormFloat64() * 0.5
	}
	a := 0.3
	logp, dp := g.LogProbGrad(p, a)
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

func TestPolicyForwardBackwardGradients(t *testing.T) {
	cfg := PolicyConfig{InDim: 6, Enc: 8, Hidden: 5, ResBlocks: 2, K: 2, Seed: 11}
	p := NewPolicy(cfg)
	state := []float64{1, -2, 0.5, 3, -0.1, 0.7}
	hidden := p.InitHidden()
	action := 0.2
	loss := func() float64 {
		head, _, _ := p.Forward(state, hidden)
		return -p.GMM.LogProb(head, action)
	}
	checkModuleGrads(t, p, loss, func() {
		head, _, c := p.Forward(state, hidden)
		_, dp := p.GMM.LogProbGrad(head, action)
		for i := range dp {
			dp[i] = -dp[i]
		}
		p.Backward(c, dp, nil)
	}, 2e-3)
}

func TestPolicyBPTTHiddenGradient(t *testing.T) {
	cfg := PolicyConfig{InDim: 3, Enc: 6, Hidden: 4, ResBlocks: 1, K: 2, Seed: 12}
	p := NewPolicy(cfg)
	s1 := []float64{0.5, -1, 2}
	s2 := []float64{-0.3, 0.8, 0.1}
	a1, a2 := 0.1, -0.4
	// Two-step BPTT loss.
	loss := func() float64 {
		h0 := p.InitHidden()
		head1, h1, _ := p.Forward(s1, h0)
		head2, _, _ := p.Forward(s2, h1)
		return -p.GMM.LogProb(head1, a1) - p.GMM.LogProb(head2, a2)
	}
	checkModuleGrads(t, p, loss, func() {
		h0 := p.InitHidden()
		head1, h1, c1 := p.Forward(s1, h0)
		head2, _, c2 := p.Forward(s2, h1)
		_, dp2 := p.GMM.LogProbGrad(head2, a2)
		for i := range dp2 {
			dp2[i] = -dp2[i]
		}
		dh1 := p.Backward(c2, dp2, nil)
		_, dp1 := p.GMM.LogProbGrad(head1, a1)
		for i := range dp1 {
			dp1[i] = -dp1[i]
		}
		p.Backward(c1, dp1, dh1)
	}, 5e-3)
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
		head, h, c := p.Forward([]float64{1, 2, 3, 4}, p.InitHidden())
		if len(head) != 3*p.Cfg.K {
			t.Fatalf("variant %d: head dim %d", i, len(head))
		}
		if cfg.NoGRU && h != nil {
			t.Fatalf("variant %d: NoGRU produced hidden state", i)
		}
		dp := make([]float64, len(head))
		dp[0] = 1
		p.Backward(c, dp, nil)
		if len(p.LastHidden(c)) != p.Cfg.Enc {
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
	h1, _, _ := p.Forward(s, p.InitHidden())
	h2, _, _ := q.Forward(s, q.InitHidden())
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
	ClipGrads(d, 1)
	if n := GradNorm(d); math.Abs(n-1) > 1e-9 {
		t.Fatalf("grad norm after clip = %v", n)
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

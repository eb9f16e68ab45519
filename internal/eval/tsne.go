package eval

import (
	"math"
	"math/rand"
)

// TSNEOptions tunes the embedding.
type TSNEOptions struct {
	Perplexity float64 // default 20
	Iterations int     // default 400
	Seed       int64
}

func (o TSNEOptions) fill() TSNEOptions {
	if o.Perplexity == 0 {
		o.Perplexity = 20
	}
	if o.Iterations == 0 {
		o.Iterations = 400
	}
	return o
}

const learnRate = 100 // gradient-descent step size

// TSNE embeds the points into 2-D with the exact t-SNE algorithm
// (van der Maaten & Hinton 2008), used for Fig. 16's hidden-layer
// visualization. Suitable for up to a few thousand points.
func TSNE(points [][]float64, opt TSNEOptions) [][2]float64 {
	opt = opt.fill()
	n := len(points)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return make([][2]float64, 1)
	}
	rng := rand.New(rand.NewSource(opt.Seed + 17))

	// Pairwise squared distances.
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			s := 0.0
			for k := range points[i] {
				d := points[i][k] - points[j][k]
				s += d * d
			}
			d2[i][j] = s
			d2[j][i] = s
		}
	}

	// Conditional probabilities with per-point bandwidth found by binary
	// search on the perplexity.
	p := make([][]float64, n)
	logPerp := math.Log(opt.Perplexity)
	for i := 0; i < n; i++ {
		p[i] = make([]float64, n)
		lo, hi := 1e-20, 1e20
		beta := 1.0
		for iter := 0; iter < 50; iter++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				if j != i {
					p[i][j] = math.Exp(-d2[i][j] * beta)
					sum += p[i][j]
				}
			}
			if sum == 0 {
				sum = 1e-12
			}
			h := 0.0
			for j := 0; j < n; j++ {
				if j != i && p[i][j] > 0 {
					pj := p[i][j] / sum
					h -= pj * math.Log(pj)
				}
			}
			for j := 0; j < n; j++ {
				p[i][j] /= sum
			}
			if math.Abs(h-logPerp) < 1e-4 {
				break
			}
			if h > logPerp {
				lo = beta
				if hi > 1e19 {
					beta *= 2
				} else {
					beta = (beta + hi) / 2
				}
			} else {
				hi = beta
				beta = (beta + lo) / 2
			}
		}
	}
	// Symmetrize, with early exaggeration.
	P := make([][]float64, n)
	for i := range P {
		P[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := (p[i][j] + p[j][i]) / (2 * float64(n))
			if v < 1e-12 {
				v = 1e-12
			}
			P[i][j] = v * 4
		}
	}

	y := make([][2]float64, n)
	for i := range y {
		y[i][0] = rng.NormFloat64() * 1e-2
		y[i][1] = rng.NormFloat64() * 1e-2
	}
	vel := make([][2]float64, n)
	grad := make([][2]float64, n)
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}

	for iter := 0; iter < opt.Iterations; iter++ {
		if iter == opt.Iterations/4 {
			for i := range P { // end early exaggeration
				for j := range P[i] {
					P[i][j] /= 4
				}
			}
		}
		z := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				dx := y[i][0] - y[j][0]
				dy := y[i][1] - y[j][1]
				q[i][j] = 1 / (1 + dx*dx + dy*dy)
				z += q[i][j]
			}
		}
		momentum := 0.5
		if iter > 100 {
			momentum = 0.8
		}
		for i := 0; i < n; i++ {
			grad[i] = [2]float64{}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				qn := q[i][j] / z
				mult := 4 * (P[i][j] - qn) * q[i][j]
				grad[i][0] += mult * (y[i][0] - y[j][0])
				grad[i][1] += mult * (y[i][1] - y[j][1])
			}
		}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				vel[i][k] = momentum*vel[i][k] - learnRate*grad[i][k]
				y[i][k] += vel[i][k]
			}
		}
	}
	return y
}

// ClusterSeparation scores how well labeled groups separate in an embedding:
// the ratio of mean inter-label distance to mean intra-label distance
// (higher = cleaner separation). Used to compare Sage-s/m/l in Fig. 16
// without eyeballing a scatter plot.
func ClusterSeparation(points [][2]float64, labels []int) float64 {
	var intra, inter float64
	var nIntra, nInter int
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			dx := points[i][0] - points[j][0]
			dy := points[i][1] - points[j][1]
			d := math.Sqrt(dx*dx + dy*dy)
			if labels[i] == labels[j] {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 || intra == 0 {
		return 0
	}
	return (inter / float64(nInter)) / (intra / float64(nIntra))
}

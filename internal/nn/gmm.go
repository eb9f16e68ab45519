package nn

import (
	"math"
	"math/rand"
)

// GMM is a Gaussian-mixture head over a scalar action: the last layer of
// Sage's policy network. A head output vector of length 3K is interpreted as
// K mixture logits, K means, K log-standard-deviations. The mixture lets the
// policy stay multi-modal instead of collapsing onto a single heuristic's
// behaviour (Section 4.2).
type GMM struct {
	K int
}

const (
	gmmLogStdMin = -5
	gmmLogStdMax = 2
	log2Pi       = 1.8378770664093453 // ln(2π)
)

// HeadDim returns the required head output width.
func (g GMM) HeadDim() int { return 3 * g.K }

func (g GMM) split(p []float64) (logits, means, logstds []float64) {
	return p[:g.K], p[g.K : 2*g.K], p[2*g.K : 3*g.K]
}

func clampLogStd(s float64) float64 {
	if s < gmmLogStdMin {
		return gmmLogStdMin
	}
	if s > gmmLogStdMax {
		return gmmLogStdMax
	}
	return s
}

// LogProb returns log π(a) under the mixture described by head output p.
func (g GMM) LogProb(p []float64, a float64) float64 {
	logits, means, logstds := g.split(p)
	logPi := make([]float64, g.K)
	lse := LogSumExp(logits)
	for k := 0; k < g.K; k++ {
		s := clampLogStd(logstds[k])
		z := (a - means[k]) / math.Exp(s)
		logN := -0.5*z*z - s - 0.5*log2Pi
		logPi[k] = logits[k] - lse + logN
	}
	return LogSumExp(logPi)
}

// LogProbGrad returns log π(a) and writes d logπ/dp into dp (length 3K),
// allocating nothing: dp's three K-blocks hold the softmax prior, the joint
// log-densities and the component scales until entry k of each is
// overwritten by its gradient.
func (g GMM) LogProbGrad(p []float64, a float64, dp []float64) float64 {
	logits, means, logstds := g.split(p)
	w, logJoint, sigma := g.split(dp)
	softmaxInto(logits, w)
	lse := LogSumExp(logits)
	for k := 0; k < g.K; k++ {
		s := clampLogStd(logstds[k])
		sigma[k] = math.Exp(s)
		z := (a - means[k]) / sigma[k]
		logJoint[k] = (logits[k] - lse) + (-0.5*z*z - s - 0.5*log2Pi)
	}
	logp := LogSumExp(logJoint)
	for k := 0; k < g.K; k++ {
		gamma := math.Exp(logJoint[k] - logp) // responsibility
		sk := sigma[k]
		z := (a - means[k]) / sk
		// d/dlogits: γ_k − w_k (softmax prior gradient).
		dp[k] = gamma - w[k]
		dp[g.K+k] = gamma * z / sk // d/dmean
		if logstds[k] > gmmLogStdMin && logstds[k] < gmmLogStdMax {
			dp[2*g.K+k] = gamma * (z*z - 1) // d/dlogstd
		} else {
			dp[2*g.K+k] = 0
		}
	}
	return logp
}

// Sample draws an action from the mixture.
func (g GMM) Sample(p []float64, rng *rand.Rand) float64 {
	u := rng.Float64()
	return g.SampleWith(p, u, rng.NormFloat64())
}

// SampleWith is Sample with the draws supplied: u ∈ [0,1) picks the
// component, z ~ N(0,1) places the action within it. Sample consumes its
// stream in exactly this order, and how far either draw advances the stream
// never depends on p — which lets a trainer draw a whole batch's samples
// before any head exists.
func (g GMM) SampleWith(p []float64, u, z float64) float64 {
	logits, means, logstds := g.split(p)
	var buf [8]float64
	w := buf[:]
	if g.K > len(buf) {
		w = make([]float64, g.K)
	}
	w = w[:g.K]
	softmaxInto(logits, w)
	k := g.K - 1
	acc := 0.0
	for i, wi := range w {
		acc += wi
		if u <= acc {
			k = i
			break
		}
	}
	return means[k] + math.Exp(clampLogStd(logstds[k]))*z
}

// Mean returns the mixture mean (the deterministic action used at
// deployment).
func (g GMM) Mean(p []float64) float64 {
	return g.MeanInto(p, make([]float64, g.K))
}

// MeanInto is Mean with a caller-supplied softmax scratch buffer (len ≥ K)
// so batched serving can take the mixture mean without allocating. The
// arithmetic is identical to Mean's, operation for operation.
func (g GMM) MeanInto(p, w []float64) float64 {
	logits, means, _ := g.split(p)
	w = w[:g.K]
	mx := logits[0]
	for _, v := range logits {
		if v > mx {
			mx = v
		}
	}
	s := 0.0
	for i, v := range logits {
		w[i] = math.Exp(v - mx)
		s += w[i]
	}
	for i := range w {
		w[i] /= s
	}
	m := 0.0
	for k := 0; k < g.K; k++ {
		m += w[k] * means[k]
	}
	return m
}

// Mode returns the mean of the highest-weight component — sharper than the
// mixture mean when components disagree.
func (g GMM) Mode(p []float64) float64 {
	logits, means, _ := g.split(p)
	best := 0
	for k := 1; k < g.K; k++ {
		if logits[k] > logits[best] {
			best = k
		}
	}
	return means[best]
}

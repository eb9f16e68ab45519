package nn

import "math"

// Activations over slices. sigmoidTo and tanhTo are the logistic
// 1/(1+math.Exp(−v)) and math.Tanh element by element, bit for bit:
// the training and inference passes may swap a scalar loop for one of them
// without moving a trained weight or a served decision.
//
// With AVX2 and FMA3, four elements at a time run through actGroups
// (act_amd64.s), which copies the fused multiply-add path of math.Exp's
// amd64 assembly operation by operation — when the math package took that
// path at start-up (actKernel, set by a probe against math.Exp; under
// GODEBUG=cpu.fma=off it takes a mul/add path the kernel does not copy, and
// the scalar loop runs). A group of four with a lane that would leave the
// exponential's ordinary path — an exp argument outside [−708, 709], a NaN
// or an Inf — is done by the scalar functions, and so are the last len%4
// elements.

// The two activations actGroups runs.
const (
	actSigmoid = iota
	actTanh
)

// sigmoidTo sets dst[i] = 1/(1+math.Exp(−src[i])). dst and src are the
// same slice or do not overlap; dst is at least as long as src.
func sigmoidTo(dst, src []float64) { actTo(actSigmoid, dst, src) }

// tanhTo sets dst[i] = math.Tanh(src[i]), as sigmoidTo.
func tanhTo(dst, src []float64) { actTo(actTanh, dst, src) }

// actTo runs op over src into dst, as sigmoidTo.
func actTo(op int, dst, src []float64) {
	n, i := len(src), 0
	dst = dst[:n]
	if useAVX2 && actKernel {
		for i+4 <= n {
			i += 4 * actGroups(op, &dst[i], &src[i], (n-i)/4)
			if i+4 <= n {
				// The kernel stopped at a group with an edge lane.
				actScalar(op, dst[i:i+4], src[i:i+4])
				i += 4
			}
		}
	}
	actScalar(op, dst[i:], src[i:])
}

// actScalar is the scalar form of op, the one every tier must match.
func actScalar(op int, dst, src []float64) {
	dst = dst[:len(src)]
	switch op {
	case actSigmoid:
		for i, v := range src {
			dst[i] = sigmoid(v)
		}
	case actTanh:
		for i, v := range src {
			dst[i] = math.Tanh(v)
		}
	}
}

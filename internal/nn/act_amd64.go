//go:build amd64

package nn

import "math"

// actKernel reports whether actGroups reproduces the math package in this
// process. math.Exp takes one of two paths on amd64, fused multiply-adds or
// separate multiplies and adds, chosen once per process from the CPU (and
// GODEBUG=cpu.fma); the kernel copies the fused one, and the probe finds out
// whether the math package runs it too. It is set in init, once every
// package-level variable — actConst, which the kernel reads — is.
var actKernel bool

func init() { actKernel = useAVX2 && x86CpuidFMA() && actMismatches() == 0 }

// x86CpuidFMA reports FMA3 and AVX support (CPUID.1 ECX[12] and ECX[28]);
// implemented in act_amd64.s.
func x86CpuidFMA() bool

// actGroups runs op — actSigmoid or actTanh — over the groups·4 elements at
// src, writing them at dst, and returns how many groups it did: all of
// them, or the index of the first group with an edge lane (an exp argument
// outside [−708, 709], a NaN or an Inf; tanh stops at NaN only), which it
// leaves unwritten. Implemented in act_amd64.s; only called with AVX2 and
// FMA3 present.
//
//go:noescape
func actGroups(op int, dst, src *float64, groups int) int

// actConst holds actGroups' constants, each broadcast to four lanes;
// act_amd64.s addresses entry k at byte k·32. The exp constants are
// math.Exp's amd64 ones (the Taylor coefficients 1/k!), the tanh ones
// math.Tanh's.
var actConst = [...][4]float64{
	x4(1.4426950408889634073599246810018920),                  // 0: log2(e)
	x4(0.69314718055966295651160180568695068359375),           // 1: ln 2, upper part
	x4(0.28235290563031577122588448175013436025525412068e-12), // 2: ln 2, lower part
	x4(0.0625),                             // 3
	x4(2.4801587301587301587e-5),           // 4: 1/8!
	x4(1.9841269841269841270e-4),           // 5: 1/7!
	x4(1.3888888888888888889e-3),           // 6: 1/6!
	x4(8.3333333333333333333e-3),           // 7: 1/5!
	x4(4.1666666666666666667e-2),           // 8: 1/4!
	x4(1.6666666666666666667e-1),           // 9: 1/3!
	x4(0.5),                                // 10
	x4(1),                                  // 11; as an integer, 1023<<52
	x4(2),                                  // 12
	x4(-708),                               // 13: the kernel's exp domain
	x4(709),                                // 14
	x4(math.Float64frombits(1 << 63)),      // 15: sign bit
	x4(math.Float64frombits(1<<63 - 1)),    // 16: all but the sign bit
	x4(0.5 * 8.8029691931113054295988e+01), // 17: tanh is ±1 above
	x4(0.625),                              // 18: tanh's polynomial below
	x4(-9.64399179425052238628e-1),         // 19: tanh P
	x4(-9.92877231001918586564e1),          // 20
	x4(-1.61468768441708447952e3),          // 21
	x4(1.12811678491632931402e2),           // 22: tanh Q
	x4(2.23548839060100448583e3),           // 23
	x4(4.84406305325125486048e3),           // 24
}

func x4(v float64) [4]float64 { return [4]float64{v, v, v, v} }

// actProbeN is the probe's size: enough inputs that the two exp paths
// disagree on some of them (TestActKernelVariant counts them under
// GODEBUG=cpu.fma=off).
const actProbeN = 256

// actProbe fills x with the probe inputs: sigmoid arguments whose exp(−v)
// spans the whole kernel domain, then arguments over every branch of tanh
// (|x| below 0.625, up to 44, beyond).
func actProbe(x *[actProbeN]float64) {
	s := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u := float64(s>>11) / (1 << 53) // [0, 1)
		if i < actProbeN/2 {
			x[i] = -709 + 1417*u
		} else {
			x[i] = (2*u - 1) * math.Ldexp(1, i%8-1) // within ±1/2, ±1, … ±64
		}
	}
}

// actMismatches runs the kernel over the probe, for every op, and returns
// how many outputs differ from actScalar's bits — every one, if the kernel
// stopped at an edge lane. Only called with AVX2 and FMA3 present; it does
// not allocate.
func actMismatches() int {
	var x, got, want [actProbeN]float64
	actProbe(&x)
	n := 0
	for _, op := range [...]int{actSigmoid, actTanh} {
		if actGroups(op, &got[0], &x[0], actProbeN/4) != actProbeN/4 {
			n += actProbeN
			continue
		}
		actScalar(op, want[:], x[:])
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				n++
			}
		}
	}
	return n
}

package nn

import (
	"math"
	"math/rand"
	"testing"
)

// actRef is the scalar definition each activation over a slice must match.
var actRef = []struct {
	name string
	f    func(float64) float64
	to   func(dst, src []float64)
}{
	{"sigmoid", func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }, sigmoidTo},
	{"tanh", math.Tanh, tanhTo},
}

// checkAct runs every activation over x, out of place and in place, and
// holds each element to the scalar function bit for bit.
func checkAct(t testing.TB, x []float64) {
	t.Helper()
	got := make([]float64, len(x))
	in := make([]float64, len(x))
	for _, a := range actRef {
		a.to(got, x)
		copy(in, x)
		a.to(in, in)
		for i, v := range x {
			want := a.f(v)
			if !sameBits(got[i], want) || !sameBits(in[i], want) {
				t.Fatalf("%s(%v = %#x) at %d of %d: got %v (%#x), in place %v, want %v (%#x)",
					a.name, v, math.Float64bits(v), i, len(x), got[i], math.Float64bits(got[i]), in[i], want, math.Float64bits(want))
			}
		}
	}
}

// actEdges are the inputs where a kernel could leave the scalar path: the
// IEEE specials, exp's overflow and subnormal boundaries and the kernel's
// own domain ends, and tanh's two branch thresholds, each with its
// neighbours one ulp away.
func actEdges() []float64 {
	var xs []float64
	for _, v := range []float64{
		0, -708, 709, 709.78, 709.782712893384, -745.13321910194122, -744, -720,
		0.625, 0.5 * 8.8029691931113054295988e+01, 44.01, 1e-300, 5e-324, 1,
		0.5 * math.Ln2, 36.7, 18.4,
	} {
		for _, s := range []float64{1, -1} {
			w := s * v
			xs = append(xs, w, math.Nextafter(w, math.Inf(1)), math.Nextafter(w, math.Inf(-1)))
		}
	}
	return append(xs, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.MaxFloat64, -math.MaxFloat64)
}

// TestActivationsMatchScalar holds sigmoid and tanh over slices to
// 1/(1+math.Exp(−v)) and math.Tanh at both kernel tiers: over a million
// random values spread across every branch, and over every edge value at
// every position of every length 0–9 (so each lands in a whole group, in a
// group with ordinary lanes, and in the scalar tail).
func TestActivationsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	x := make([]float64, n)
	for i := range x {
		switch i % 5 {
		case 0:
			x[i] = (rng.Float64()*2 - 1) * 760 // all of exp's range and past it
		case 1:
			x[i] = rng.NormFloat64() * 4 // where the network's gates live
		case 2:
			x[i] = (rng.Float64()*2 - 1) * 0.7 // tanh's polynomial, and its threshold
		case 3:
			x[i] = (rng.Float64()*2 - 1) * 50 // tanh's exp branch, and its saturation
		default:
			x[i] = math.Float64frombits(rng.Uint64()) // any bit pattern
		}
	}
	edges := actEdges()
	kernelTiers(t, func(t *testing.T) {
		checkAct(t, x)
		for n := 0; n <= 9; n++ {
			for _, e := range edges {
				for at := 0; at < n; at++ {
					buf := make([]float64, n)
					for i := range buf {
						buf[i] = rng.NormFloat64()
					}
					buf[at] = e
					checkAct(t, buf)
				}
			}
		}
		checkAct(t, edges)
	})
}

func TestActivationsNoAllocs(t *testing.T) {
	x := randVec(rand.New(rand.NewSource(1)), 203)
	if n := testing.AllocsPerRun(20, func() {
		sigmoidTo(x, x)
		tanhTo(x, x)
	}); n != 0 {
		t.Fatalf("%v allocations per call", n)
	}
}

// FuzzActivations holds the activations over slices to the scalar
// functions on arbitrary bit patterns: each input is one to three float64s
// as their bits, repeated to a length the last byte picks.
func FuzzActivations(f *testing.F) {
	for _, e := range actEdges() {
		f.Add(math.Float64bits(e), math.Float64bits(1.5), math.Float64bits(-0.3), uint8(5))
	}
	f.Add(uint64(0), uint64(1<<63), uint64(0x7ff8000000000001), uint8(11))
	f.Fuzz(func(t *testing.T, a, b, c uint64, n uint8) {
		vals := [3]float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)}
		x := make([]float64, n%37)
		for i := range x {
			x[i] = vals[(i*7/5)%3]
		}
		checkAct(t, x)
	})
}

func BenchmarkActivations(b *testing.B) {
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i-128) / 16
	}
	dst := make([]float64, len(x))
	kernelTiers(b, func(b *testing.B) {
		for _, a := range actRef {
			b.Run(a.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.to(dst, x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
			})
		}
	})
}

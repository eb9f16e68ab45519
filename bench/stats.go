package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// pct returns the q-quantile (0 < q ≤ 1) of sorted by nearest rank: the
// ⌈q·n⌉-th smallest sample, an observed value rather than an interpolation.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// timing is how every latency in the benchmark is reported: the median, the
// highest of p90/p95/p99/p99.9 that still has at least ten samples beyond
// it (TailQ is 0 when even p90 does not), and the sample count.
type timing struct {
	N     int
	P50   float64
	TailQ float64
	Tail  float64
	Max   float64
}

var tailLadder = []float64{0.999, 0.99, 0.95, 0.90}

// summarize sorts samples in place.
func summarize(samples []float64) timing {
	sort.Float64s(samples)
	t := timing{N: len(samples), P50: pct(samples, 0.5)}
	if t.N == 0 {
		return t
	}
	t.Max = samples[t.N-1]
	for _, q := range tailLadder {
		if beyond(t.N, q) >= 10 {
			t.TailQ, t.Tail = q, pct(samples, q)
			break
		}
	}
	return t
}

func (t timing) String() string {
	if t.TailQ == 0 {
		return fmt.Sprintf("p50=%.4g (n=%d, too few samples for a tail percentile)", t.P50, t.N)
	}
	return fmt.Sprintf("p50=%.4g p%g=%.4g max=%.4g (n=%d)", t.P50, 100*t.TailQ, t.Tail, t.Max, t.N)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// agg summarizes one metric over repeated runs. Best is the minimum for a
// lower-is-better metric and the maximum otherwise; Spread is the distance
// between the quartiles as a share of the median, the statistic the bounds
// in BENCHMARK.json are sized against.
type agg struct {
	Best   float64 `json:"best"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

func aggregate(values []float64, lowerIsBetter bool) agg {
	if len(values) == 0 {
		return agg{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	a := agg{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
	a.Best = a.Max
	if lowerIsBetter {
		a.Best = a.Min
	}
	if len(s) >= 2 && a.Median != 0 {
		q1, q3 := quartiles(s)
		a.Spread = (q3 - q1) / math.Abs(a.Median)
	}
	return a
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the acceptance check uses.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(i int) float64 {
		n := len(sorted)
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j) // outside [0,4] once j is clamped: it extrapolates
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// digest hashes program outputs so that repetitions and re-implementations
// can be compared for bitwise equality. Floats are hashed by their bits.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d digest) f64s(vs []float64) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.f64(v)
	}
}

func (d digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

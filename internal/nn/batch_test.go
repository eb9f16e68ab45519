package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sage/internal/alloctest"
)

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// setAVX2 forces the vector kernels on or off and returns the previous
// setting; nil where the build has no such switch (gemm_amd64_test.go).
var setAVX2 func(on bool) (was bool)

// kernelTiers runs f with useAVX2 as detected and, where the build has the
// switch, forced off — as subtests, or as sub-benchmarks.
func kernelTiers[T interface{ Run(string, func(T)) bool }](t T, f func(T)) {
	t.Run("avx2=detected", f)
	if setAVX2 != nil {
		was := setAVX2(false)
		defer setAVX2(was)
		t.Run("avx2=off", f)
	}
}

// eachKernelTier runs f at both kernel tiers over batch sizes on each side
// of matMul's boundaries: rows that miss a tile, run one at a time (through
// dotCols16 with AVX2; 1, 2, 5, 15), the 8-row blocked scalar tier without
// it (8, 9), and the 16-row AVX2 tile with and without rows left over (16,
// 17, 33).
func eachKernelTier(t *testing.T, f func(t *testing.T, B int)) {
	kernelTiers(t, func(t *testing.T) {
		for _, B := range []int{1, 2, 5, 8, 9, 15, 16, 17, 33} {
			t.Run(fmt.Sprintf("B=%d", B), func(t *testing.T) { f(t, B) })
		}
	})
}

// checkRowsMatchOracle holds one BatchForward's heads, new hidden states and
// last-hidden rows (read off the scratch) to the scalar oracle forwardCached,
// bit for bit, and the cold-path Policy.Forward with them; it returns the
// oracle's new hidden states.
func checkRowsMatchOracle(t *testing.T, p *Policy, states *Mat, seqH [][]float64, heads, hNew *Mat, scratch *PolicyBatchScratch) [][]float64 {
	t.Helper()
	same := func(what string, r int, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("row %d %s: %d values, oracle %d", r, what, len(got), len(want))
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("row %d %s[%d]: %v, oracle %v", r, what, i, got[i], want[i])
			}
		}
	}
	wbuf := make([]float64, p.GMM.K)
	next := make([][]float64, states.Rows)
	for r := range next {
		head, h2, cache := p.forwardCached(states.Row(r), seqH[r])
		same("head", r, heads.Row(r), head)
		same("last hidden", r, scratch.LastHidden().Row(r), cache.resOut)
		if len(h2) > 0 {
			same("hidden", r, hNew.Row(r), h2)
		}
		cold, hCold := p.Forward(states.Row(r), seqH[r])
		same("Forward head", r, cold, head)
		same("Forward hidden", r, hCold, h2)
		if mu, ms := p.GMM.Mean(head), p.GMM.MeanInto(heads.Row(r), wbuf); !sameBits(mu, ms) {
			t.Fatalf("row %d mean: MeanInto %v, Mean %v", r, ms, mu)
		}
		next[r] = h2
	}
	return next
}

// Batched inference must match the scalar oracle bit for bit — no tolerance
// — for every architecture variant, at every kernel tier.
func TestPolicyBatchForwardMatchesSequential(t *testing.T) {
	cfgs := map[string]PolicyConfig{
		"full":      {InDim: 69, Enc: 32, Hidden: 24, ResBlocks: 2, K: 5, Seed: 1},
		"noGRU":     {InDim: 69, Enc: 32, Hidden: 24, ResBlocks: 2, K: 5, NoGRU: true, Seed: 2},
		"noEncoder": {InDim: 69, Enc: 32, Hidden: 24, ResBlocks: 2, K: 5, NoEncoder: true, Seed: 3},
		"k1":        {InDim: 12, Enc: 16, Hidden: 8, ResBlocks: 1, K: 1, Seed: 4},
		// No width a multiple of 16 or of 4: every layer leaves outputs
		// past its last 16-output block and columns past its last 4.
		"ragged": {InDim: 37, Enc: 43, Hidden: 21, ResBlocks: 1, K: 3, Seed: 5},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			eachKernelTier(t, func(t *testing.T, B int) {
				p := NewPolicy(cfg)
				rng := rand.New(rand.NewSource(99))
				// Non-trivial normalizer so BatchApply is exercised.
				var fit [][]float64
				for i := 0; i < 32; i++ {
					fit = append(fit, randVec(rng, cfg.InDim))
				}
				p.Norm = FitNormalizer(fit)

				hidDim := len(p.InitHidden())
				states := NewMat(B, cfg.InDim)
				hidden := NewMat(B, hidDim)
				seqH := make([][]float64, B)
				for r := 0; r < B; r++ {
					states.SetRow(r, randVec(rng, cfg.InDim))
					h := p.InitHidden()
					for i := range h {
						h[i] = rng.NormFloat64()
					}
					seqH[r] = h
					hidden.SetRow(r, h)
				}

				scratch := p.NewBatchScratch()
				heads, hNew := p.BatchForward(states, hidden, scratch)
				checkRowsMatchOracle(t, p, states, seqH, heads, hNew, scratch)
			})
		})
	}
}

// Multi-step: hidden state threaded through BatchForward calls must track
// the oracle's recurrence exactly.
func TestPolicyBatchForwardRecurrent(t *testing.T) {
	cfg := PolicyConfig{InDim: 20, Enc: 16, Hidden: 12, ResBlocks: 2, K: 3, Seed: 11}
	eachKernelTier(t, func(t *testing.T, B int) {
		p := NewPolicy(cfg)
		rng := rand.New(rand.NewSource(5))

		const steps = 6
		hid := NewMat(B, cfg.Hidden)
		seqH := make([][]float64, B)
		for r := range seqH {
			seqH[r] = p.InitHidden()
		}
		scratch := p.NewBatchScratch()
		states := NewMat(B, cfg.InDim)
		for s := 0; s < steps; s++ {
			for r := 0; r < B; r++ {
				states.SetRow(r, randVec(rng, cfg.InDim))
			}
			heads, hNew := p.BatchForward(states, hid, scratch)
			seqH = checkRowsMatchOracle(t, p, states, seqH, heads, hNew, scratch)
			// hNew aliases scratch: copy it back into the persistent mat the
			// way the serving engine does.
			copy(hid.Data, hNew.Data)
		}
	})
}

// After warm-up a batched forward must not allocate: the engine reuses
// one scratch per worker across every batch it serves.
func TestPolicyBatchForwardNoAllocs(t *testing.T) {
	cfg := PolicyConfig{InDim: 30, Enc: 16, Hidden: 12, ResBlocks: 2, K: 3, Seed: 21}
	p := NewPolicy(cfg)
	rng := rand.New(rand.NewSource(6))
	const B = 16
	states := NewMat(B, cfg.InDim)
	hidden := NewMat(B, cfg.Hidden)
	for r := 0; r < B; r++ {
		states.SetRow(r, randVec(rng, cfg.InDim))
	}
	scratch := p.NewBatchScratch()
	hPersist := NewMat(B, cfg.Hidden)
	step := func() {
		heads, hNew := p.BatchForward(states, hidden, scratch)
		copy(hPersist.Data, hNew.Data)
		_ = heads
	}
	step() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Fatalf("BatchForward allocates %.1f objects/op after warm-up, want 0", allocs)
	}
}

// TestTileScratchNoAllocs: a scratch from NewTileScratch is sized for a
// whole tile, so its first BatchForward of any batch up to TileRows rows —
// one row or nine, whose hidden rows a lazily grown scratch would size at
// 18 — allocates nothing, and its outputs are the oracle's.
func TestTileScratchNoAllocs(t *testing.T) {
	cfgs := []PolicyConfig{{InDim: 30, Enc: 16, Hidden: 12, ResBlocks: 2, K: 3, Seed: 21}, {InDim: 30, Enc: 16, Hidden: 12, ResBlocks: 1, K: 3, NoGRU: true, Seed: 22}}
	for _, cfg := range cfgs {
		p := NewPolicy(cfg)
		rng := rand.New(rand.NewSource(7))
		for _, B := range []int{1, 9, TileRows, 2} {
			states, hidden := NewMat(B, cfg.InDim), NewMat(B, cfg.Hidden)
			copy(states.Data, randVec(rng, len(states.Data)))
			copy(hidden.Data, randVec(rng, len(hidden.Data)))
			seqH := make([][]float64, B)
			for r := range seqH {
				seqH[r] = append([]float64(nil), hidden.Row(r)...)
			}
			scratch := p.NewTileScratch()
			var heads, hNew *Mat
			if c := alloctest.Measure(func() { heads, hNew = p.BatchForward(states, hidden, scratch) }); c.Mallocs > 0 {
				t.Fatalf("NoGRU=%v B=%d: first BatchForward on a tile scratch allocates %d objects", cfg.NoGRU, B, c.Mallocs)
			}
			if cfg.NoGRU {
				for r := range seqH {
					seqH[r] = nil
				}
			}
			checkRowsMatchOracle(t, p, states, seqH, heads, hNew, scratch)
		}
	}
}

// TestDotCols16MatchesScalar holds matMulBias and matMulAcc to the scalar
// chain — s = seed + W[i][0]·x[0] + W[i][1]·x[1] + … in j order, seeded
// with the bias or 0, stored or added once — bit for bit at both kernel
// tiers. With AVX2 every row outside a 16-row tile runs dotCols16 and every
// tile gemmTile16, so the sweep covers every width 0–70 (each width mod 4,
// for the columns the kernels leave to Go), 1–40 outputs (none, one and two
// 16-output blocks, and every count mod 4, with and without outputs left
// over) and 1–17, 32, 33 and 48 rows (no tile, a whole tile, one row past
// it, a second and a third tile, two tiles and a row), with NaN, ±Inf, −0
// and subnormals of either sign among the weights, inputs, biases and
// accumulators. Nothing past the output matrix may be written: the guard
// words after it catch a 32-byte store past the last output. Under -short
// only rows 1, 15, 17 and 33 run.
func TestDotCols16MatchesScalar(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.SmallestNonzeroFloat64, -0x1p-1030}
	rng := rand.New(rand.NewSource(29))
	fill := func(v []float64) {
		for i := range v {
			if rng.Intn(12) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
	}
	rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 33, 48}
	if testing.Short() {
		rowCounts = []int{1, 15, 17, 33}
	}
	const maxRows, guard = 48, 5
	kernelTiers(t, func(t *testing.T) {
		for cols := 0; cols <= 70; cols++ {
			for outs := 1; outs <= 40; outs++ {
				p := NewParam("w", outs, cols)
				fill(p.Data)
				bias := make([]float64, outs)
				fill(bias)
				x := NewMat(maxRows, cols)
				fill(x.Data)
				init := make([]float64, maxRows*outs+guard)
				fill(init)
				// The scalar chains of every row, seeded with the bias and
				// with 0; a matMul over the first rows of x must match theirs.
				fromBias, fromZero := make([]float64, maxRows*outs), make([]float64, maxRows*outs)
				for r := 0; r < maxRows; r++ {
					for i := 0; i < outs; i++ {
						sb, s0 := bias[i], 0.0
						for j := 0; j < cols; j++ {
							sb += p.Data[i*cols+j] * x.Data[r*cols+j]
							s0 += p.Data[i*cols+j] * x.Data[r*cols+j]
						}
						fromBias[r*outs+i], fromZero[r*outs+i] = sb, s0
					}
				}
				for _, rows := range rowCounts {
					xr := x.rowsView(0, rows)
					n := rows * outs
					for _, add := range []bool{false, true} {
						buf := append([]float64(nil), init[:n+guard]...)
						out := &Mat{Rows: rows, Cols: outs, Data: buf[:n]}
						var sc gemmScratch
						if add {
							matMulAcc(p, &xr, out, &sc)
						} else {
							matMulBias(p, bias, &xr, out, &sc)
						}
						for k, got := range buf {
							want := init[k]
							switch {
							case k >= n:
							case add:
								want += fromZero[k]
							default:
								want = fromBias[k]
							}
							if !sameOrNaN(got, want) || (k >= n && !sameBits(got, want)) {
								t.Fatalf("cols=%d outs=%d rows=%d add=%v: element %d is %v (%#x), scalar chain %v (%#x)",
									cols, outs, rows, add, k, got, math.Float64bits(got), want, math.Float64bits(want))
							}
						}
					}
				}
			}
		}
	})
}

// FuzzMatMulTile holds matMul to the scalar chain on arbitrary float64 bit
// patterns, bit for bit as TestDotCols16MatchesScalar compares: the input
// picks the shape — 1–40 outputs, 0–70 columns, 16–33 rows (one tile, with
// and without rows left over), bias or nil, stored or added — and its bytes,
// repeated as far as needed, are the weights, bias, inputs and initial
// outputs. Guard words after the output catch a store past its end.
func FuzzMatMulTile(f *testing.F) {
	f.Add(uint8(15), uint8(64), uint8(0), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0xc0})
	f.Add(uint8(31), uint8(69), uint8(17), uint8(2), []byte{0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(uint8(2), uint8(3), uint8(1), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, outs, cols, rows, mode uint8, data []byte) {
		const guard = 5
		nOut, nCol, nRow := 1+int(outs)%40, int(cols)%71, TileRows+int(rows)%18
		withBias, add := mode&1 != 0, mode&2 != 0
		k := 0
		next := func() float64 {
			var b [8]byte
			for i := range b {
				if len(data) > 0 {
					b[i] = data[(8*k+i)%len(data)]
				}
			}
			k++
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		p := NewParam("w", nOut, nCol)
		for i := range p.Data {
			p.Data[i] = next()
		}
		var bias []float64
		if withBias {
			bias = make([]float64, nOut)
			for i := range bias {
				bias[i] = next()
			}
		}
		x := NewMat(nRow, nCol)
		for i := range x.Data {
			x.Data[i] = next()
		}
		n := nRow * nOut
		init := make([]float64, n+guard)
		for i := range init {
			init[i] = next()
		}
		buf := append([]float64(nil), init...)
		out := &Mat{Rows: nRow, Cols: nOut, Data: buf[:n]}
		matMul(x, &gemmScratch{}, gemmJob{p, bias, out, add})
		for e, got := range buf {
			want := init[e]
			if e < n {
				r, i := e/nOut, e%nOut
				s := 0.0
				if bias != nil {
					s = bias[i]
				}
				for j := 0; j < nCol; j++ {
					s += float64(p.Data[i*nCol+j] * x.Data[r*nCol+j])
				}
				if add {
					want += s
				} else {
					want = s
				}
			}
			if !sameOrNaN(got, want) || (e >= n && !sameBits(got, want)) {
				t.Fatalf("outs=%d cols=%d rows=%d bias=%v add=%v: element %d is %v (%#x), scalar chain %v (%#x)",
					nOut, nCol, nRow, withBias, add, e, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

func TestMatReset(t *testing.T) {
	m := NewMat(4, 8)
	data := &m.Data[0]
	m.Reset(2, 8)
	if &m.Data[0] != data {
		t.Fatal("shrinking Reset reallocated")
	}
	m.Reset(16, 8)
	if m.Rows != 16 || m.Cols != 8 || len(m.Data) != 128 {
		t.Fatalf("grow: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
}

// A matrix grown one row at a time, as a fleet's batch grows while its flows
// join, reallocates O(log n) times, not once per row.
func TestMatResetGrowsGeometrically(t *testing.T) {
	var m Mat
	grows := 0
	for rows := 1; rows <= 256; rows++ {
		before := cap(m.Data)
		m.Reset(rows, 69)
		if cap(m.Data) != before {
			grows++
		}
		if len(m.Data) != rows*69 {
			t.Fatalf("%d rows: len %d", rows, len(m.Data))
		}
	}
	if grows > 9 { // 1, 2, 4, …, 256 rows
		t.Fatalf("256 one-row steps reallocated %d times, want ≤ 9", grows)
	}
	// A one-row matrix keeps one row of capacity (a per-flow stepper's
	// row); its second row brings a whole tile, and growth past the tile
	// still doubles.
	m = Mat{}
	for _, step := range []struct{ rows, capRows int }{{1, 1}, {2, TileRows}, {TileRows, TileRows}, {TileRows + 1, 2 * TileRows}, {5 * TileRows, 5 * TileRows}} {
		if m.Reset(step.rows, 69); cap(m.Data) != step.capRows*69 {
			t.Fatalf("%d rows: capacity %d rows, want %d", step.rows, cap(m.Data)/69, step.capRows)
		}
	}
	m = Mat{}
	if allocs := testing.AllocsPerRun(1, func() {
		m = Mat{}
		for rows := 1; rows <= 256; rows++ {
			m.Reset(rows, 69)
		}
	}); allocs > 9 {
		t.Fatalf("256 one-row steps allocated %.0f times, want ≤ 9", allocs)
	}
}

func benchBatchPolicy() *Policy {
	return NewPolicy(PolicyConfig{InDim: 69, Enc: 64, Hidden: 32, ResBlocks: 2, K: 5, Seed: 1})
}

// BenchmarkPolicyBatchForward measures one batched decision round at
// various fleet sizes; compare per-flow cost against
// BenchmarkPolicySequentialForward at the same size.
func BenchmarkPolicyBatchForward(b *testing.B) {
	for _, B := range []int{10, 100, 1000} {
		B := B
		b.Run(fmt.Sprintf("flows=%d", B), func(b *testing.B) {
			p := benchBatchPolicy()
			rng := rand.New(rand.NewSource(2))
			states := NewMat(B, 69)
			hidden := NewMat(B, 32)
			for r := 0; r < B; r++ {
				states.SetRow(r, randVec(rng, 69))
			}
			scratch := p.NewBatchScratch()
			wbuf := make([]float64, p.GMM.K)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				heads, hNew := p.BatchForward(states, hidden, scratch)
				copy(hidden.Data, hNew.Data)
				for r := 0; r < B; r++ {
					_ = p.GMM.MeanInto(heads.Row(r), wbuf)
				}
			}
		})
	}
}

// BenchmarkPolicySequentialForward is the per-flow baseline the batched
// path is judged against: N independent one-row BatchForward calls per
// round, as the per-flow controllers do.
func BenchmarkPolicySequentialForward(b *testing.B) {
	for _, B := range []int{10, 100, 1000} {
		B := B
		b.Run(fmt.Sprintf("flows=%d", B), func(b *testing.B) {
			p := benchBatchPolicy()
			rng := rand.New(rand.NewSource(2))
			states := make([]*Mat, B)
			hidden := make([]*Mat, B)
			for r := 0; r < B; r++ {
				states[r] = NewMat(1, 69)
				states[r].SetRow(0, randVec(rng, 69))
				hidden[r] = NewMat(1, 32)
			}
			scratch := p.NewBatchScratch()
			wbuf := make([]float64, p.GMM.K)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < B; r++ {
					heads, hNew := p.BatchForward(states[r], hidden[r], scratch)
					copy(hidden[r].Data, hNew.Data)
					_ = p.GMM.MeanInto(heads.Data, wbuf)
				}
			}
		})
	}
}

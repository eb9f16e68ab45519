package nn

import "math"

// Batched inference kernels. A Mat is a row-major batch: row r is one
// flow's vector. Every Batch* kernel performs, per row, exactly the same
// floating-point operations in exactly the same order whatever the batch
// size and whichever kernel tier the row lands in — the order of the scalar
// oracle in reference_test.go — so a batched forward pass is bitwise
// identical to N one-row ones: the serving engine can multiplex thousands
// of flows onto one matrix pass without changing a single decision.
//
// The speedup comes from two places. First, matrix–matrix blocking:
// the GEMM kernels process four batch rows per weight-row pass, which
// loads each weight row once for four flows and — more importantly —
// runs four independent accumulation chains, hiding the FP-add latency
// that serializes a single dot product. Each row's own summation order
// is untouched, so equivalence survives. Second, amortization: no
// per-step cache construction and no per-call allocations; scratch
// buffers stay hot across the whole batch.

// Mat is a dense row-major matrix backed by a single flat slice.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	m := &Mat{}
	m.Reset(rows, cols)
	return m
}

// Reset resizes the matrix in place, reusing the backing array when it is
// large enough (contents are unspecified afterwards). Returns m. A backing
// array that must grow at least doubles, so a batch that gains a row at a
// time — a fleet whose flows join one by one — reallocates O(log n) times.
func (m *Mat) Reset(rows, cols int) *Mat {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n, max(n, 2*cap(m.Data)))
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// Row returns row r as a slice view.
func (m *Mat) Row(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// SetRow copies x into row r.
func (m *Mat) SetRow(r int, x []float64) { copy(m.Row(r), x) }

// fillRows copies v into every row of m.
func (m *Mat) fillRows(v []float64) {
	for r := 0; r < m.Rows; r++ {
		copy(m.Row(r), v)
	}
}

// TileRows is the SIMD tile height: 16 batch rows = 4 YMM accumulators. A
// caller that splits one batch across goroutines cuts it at multiples of
// TileRows, so every part but the last runs whole tiles.
const TileRows = 16

// gemmScratch holds the transposed input tile the AVX2 kernels consume and
// the backward's accumulation list; one per concurrent worker (embedded in
// GRUScratch / PolicyBatchScratch and the tapes).
type gemmScratch struct {
	xt    []float64
	terms []axpyTerm
}

func (s *gemmScratch) tile(cols int) []float64 {
	n := TileRows * cols
	if cap(s.xt) < n {
		s.xt = make([]float64, n)
	}
	return s.xt[:n]
}

// transposeTile packs rows [r, r+TileRows) of x into xt with layout
// xt[j*TileRows+l] = x[r+l][j], so one unaligned vector load fetches
// element j of four consecutive batch rows.
func transposeTile(x *Mat, r, cols int, xt []float64) {
	for l := 0; l < TileRows; l++ {
		xr := x.Row(r + l)[:cols]
		for j, v := range xr {
			xt[j*TileRows+l] = v
		}
	}
}

// matMulBias computes out[r][i] = bias[i] + Σ_j W[i][j]·x[r][j], the
// accumulator seeded with the bias and the products added in j order.
// On amd64 with AVX2, 16-row tiles run through dotTile16; remaining rows
// take the blocked scalar path (eight rows per weight pass).
func matMulBias(p *Param, bias []float64, x, out *Mat, sc *gemmScratch) {
	cols := p.Cols
	r := 0
	if useAVX2 && cols > 0 {
		xt := sc.tile(cols)
		for ; r+TileRows <= x.Rows; r += TileRows {
			transposeTile(x, r, cols, xt)
			for i := 0; i < p.Rows; i++ {
				w := p.Data[i*cols : (i+1)*cols]
				var acc [TileRows]float64
				b := bias[i]
				for l := range acc {
					acc[l] = b
				}
				dotTile16(&w[0], &xt[0], cols, &acc)
				for l := 0; l < TileRows; l++ {
					out.Data[(r+l)*out.Cols+i] = acc[l]
				}
			}
		}
	}
	for ; r+8 <= x.Rows; r += 8 {
		// Reslicing to cols lets the compiler drop the bounds checks in
		// the inner loop (len(w) == len(xN) == cols is then provable).
		x0, x1, x2, x3 := x.Row(r)[:cols], x.Row(r + 1)[:cols], x.Row(r + 2)[:cols], x.Row(r + 3)[:cols]
		x4, x5, x6, x7 := x.Row(r + 4)[:cols], x.Row(r + 5)[:cols], x.Row(r + 6)[:cols], x.Row(r + 7)[:cols]
		o0, o1, o2, o3 := out.Row(r), out.Row(r+1), out.Row(r+2), out.Row(r+3)
		o4, o5, o6, o7 := out.Row(r+4), out.Row(r+5), out.Row(r+6), out.Row(r+7)
		for i := 0; i < p.Rows; i++ {
			w := p.Data[i*cols : (i+1)*cols : (i+1)*cols]
			b := bias[i]
			s0, s1, s2, s3 := b, b, b, b
			s4, s5, s6, s7 := b, b, b, b
			for j, wj := range w {
				s0 += wj * x0[j]
				s1 += wj * x1[j]
				s2 += wj * x2[j]
				s3 += wj * x3[j]
				s4 += wj * x4[j]
				s5 += wj * x5[j]
				s6 += wj * x6[j]
				s7 += wj * x7[j]
			}
			o0[i], o1[i], o2[i], o3[i] = s0, s1, s2, s3
			o4[i], o5[i], o6[i], o7[i] = s4, s5, s6, s7
		}
	}
	for ; r < x.Rows; r++ {
		xr, or := x.Row(r)[:cols], out.Row(r)
		for i := 0; i < p.Rows; i++ {
			w := p.Data[i*cols : (i+1)*cols : (i+1)*cols]
			s := bias[i]
			for j, wj := range w {
				s += wj * xr[j]
			}
			or[i] = s
		}
	}
}

// matMulAcc computes out[r][i] += Σ_j W[i][j]·x[r][j] with the dot
// product summed separately, in j order, and added once. Same tiling
// strategy as matMulBias.
func matMulAcc(p *Param, x, out *Mat, sc *gemmScratch) {
	cols := p.Cols
	r := 0
	if useAVX2 && cols > 0 {
		xt := sc.tile(cols)
		for ; r+TileRows <= x.Rows; r += TileRows {
			transposeTile(x, r, cols, xt)
			for i := 0; i < p.Rows; i++ {
				w := p.Data[i*cols : (i+1)*cols]
				var acc [TileRows]float64
				dotTile16(&w[0], &xt[0], cols, &acc)
				for l := 0; l < TileRows; l++ {
					out.Data[(r+l)*out.Cols+i] += acc[l]
				}
			}
		}
	}
	for ; r+8 <= x.Rows; r += 8 {
		x0, x1, x2, x3 := x.Row(r)[:cols], x.Row(r + 1)[:cols], x.Row(r + 2)[:cols], x.Row(r + 3)[:cols]
		x4, x5, x6, x7 := x.Row(r + 4)[:cols], x.Row(r + 5)[:cols], x.Row(r + 6)[:cols], x.Row(r + 7)[:cols]
		o0, o1, o2, o3 := out.Row(r), out.Row(r+1), out.Row(r+2), out.Row(r+3)
		o4, o5, o6, o7 := out.Row(r+4), out.Row(r+5), out.Row(r+6), out.Row(r+7)
		for i := 0; i < p.Rows; i++ {
			w := p.Data[i*cols : (i+1)*cols : (i+1)*cols]
			var s0, s1, s2, s3 float64
			var s4, s5, s6, s7 float64
			for j, wj := range w {
				s0 += wj * x0[j]
				s1 += wj * x1[j]
				s2 += wj * x2[j]
				s3 += wj * x3[j]
				s4 += wj * x4[j]
				s5 += wj * x5[j]
				s6 += wj * x6[j]
				s7 += wj * x7[j]
			}
			o0[i] += s0
			o1[i] += s1
			o2[i] += s2
			o3[i] += s3
			o4[i] += s4
			o5[i] += s5
			o6[i] += s6
			o7[i] += s7
		}
	}
	for ; r < x.Rows; r++ {
		xr, or := x.Row(r)[:cols], out.Row(r)
		for i := 0; i < p.Rows; i++ {
			w := p.Data[i*cols : (i+1)*cols : (i+1)*cols]
			s := 0.0
			for j, wj := range w {
				s += wj * xr[j]
			}
			or[i] += s
		}
	}
}

// BatchForward computes out[r] = W·x[r] + b for every row, writing into
// out (resized to x.Rows × d.Outs). This convenience form allocates its own
// tile scratch; hot paths go through Policy.BatchForward, whose
// PolicyBatchScratch is reused.
func (d *Dense) BatchForward(x, out *Mat) {
	var sc gemmScratch
	d.batchForward(x, out, &sc)
}

func (d *Dense) batchForward(x, out *Mat, sc *gemmScratch) {
	out.Reset(x.Rows, d.Outs)
	matMulBias(d.W, d.B.Data, x, out, sc)
}

// BatchForward normalizes every row of x into out (no cache: inference
// only).
func (ln *LayerNorm) BatchForward(x, out *Mat) {
	out.Reset(x.Rows, ln.N)
	n := float64(ln.N)
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		or := out.Row(r)
		mu := 0.0
		for _, v := range xr {
			mu += v
		}
		mu /= n
		varr := 0.0
		for _, v := range xr {
			d := v - mu
			varr += d * d
		}
		varr /= n
		std := math.Sqrt(varr + ln.Eps)
		for i, v := range xr {
			or[i] = ((v-mu)/std)*ln.G.Data[i] + ln.B.Data[i]
		}
	}
}

// GRUScratch holds the gate pre-activation matrices BatchForward reuses
// across calls; one scratch per concurrent worker.
type GRUScratch struct {
	zPre, rPre, nPre, unH Mat
	gemm                  gemmScratch
}

// BatchForward advances the cell one step for every row: hNew[r] =
// GRU(x[r], h[r]), each row by itself.
func (g *GRU) BatchForward(x, h, hNew *Mat, s *GRUScratch) {
	B, H := x.Rows, g.Hidden
	hNew.Reset(B, H)
	s.zPre.Reset(B, H)
	s.rPre.Reset(B, H)
	s.nPre.Reset(B, H)
	s.unH.Reset(B, H)

	s.zPre.fillRows(g.Bz.Data)
	s.rPre.fillRows(g.Br.Data)
	matMulAcc(g.Wz, x, &s.zPre, &s.gemm)
	matMulAcc(g.Uz, h, &s.zPre, &s.gemm)
	matMulAcc(g.Wr, x, &s.rPre, &s.gemm)
	matMulAcc(g.Ur, h, &s.rPre, &s.gemm)
	for i, v := range s.zPre.Data {
		s.zPre.Data[i] = sigmoid(v)
	}
	for i, v := range s.rPre.Data {
		s.rPre.Data[i] = sigmoid(v)
	}
	s.nPre.fillRows(g.Bn.Data)
	for i := range s.unH.Data {
		s.unH.Data[i] = 0
	}
	matMulAcc(g.Wn, x, &s.nPre, &s.gemm)
	matMulAcc(g.Un, h, &s.unH, &s.gemm)
	// zPre and rPre now hold z and r.
	for k := range s.nPre.Data {
		n := math.Tanh(s.nPre.Data[k] + s.rPre.Data[k]*s.unH.Data[k])
		z := s.zPre.Data[k]
		hNew.Data[k] = (1-z)*n + z*h.Data[k]
	}
}

// BatchApply standardizes every row of x into out, clipped to ±10σ so
// deployment outliers cannot saturate the network.
func (n *Normalizer) BatchApply(x, out *Mat) {
	out.Reset(x.Rows, x.Cols)
	if len(n.Mean) == 0 {
		copy(out.Data, x.Data)
		return
	}
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		or := out.Row(r)
		for i, v := range xr {
			z := (v - n.Mean[i]) / n.Std[i]
			if z > 10 {
				z = 10
			} else if z < -10 {
				z = -10
			}
			or[i] = z
		}
	}
}

// tanhInPlace applies tanh elementwise over a flat buffer.
func tanhInPlace(x []float64) {
	for i, v := range x {
		x[i] = math.Tanh(v)
	}
}

package nn

// Batched kernels: the products and the normalizer of the one Fig. 6 graph
// walk (tape.go), which training and inference share. A Mat is a row-major
// batch: row r is one flow's vector, or one step of one sequence. Every
// kernel performs, per row, exactly the same floating-point operations in
// exactly the same order whatever the batch size and whichever kernel tier
// the row lands in — the order of the scalar oracle in reference_test.go —
// so a batched forward pass is bitwise identical to N one-row ones: the
// serving engine can multiplex thousands of flows onto one matrix pass
// without changing a single decision.
//
// The speedup comes from two places. First, independent accumulation
// chains, which hide the FP-add latency that serializes a single dot
// product: a batch runs 16 rows (AVX2) or 8 rows per weight-row pass,
// loading each weight row once for all of them, and a row on its own runs
// 16 outputs at once (dotCols16). Each output's own summation order is
// untouched, so equivalence survives. Second, amortization: no per-step
// cache construction and no per-call allocations; scratch buffers stay hot
// across the whole batch.
//
// The activations between the layers have two tiers as well: with AVX2 and
// FMA3 the GRU's gates and the tanh layers run four elements at a time
// through the activation kernel (act.go), which reproduces math.Exp's fused
// path and math.Tanh bit for bit; without them, or where its start-up probe
// finds no match (GODEBUG=cpu.fma=off), they run the scalar loop.

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
// array that must grow at least doubles, and one that grows past one row
// takes a whole TileRows-row tile at once: a batch that gains a row at a
// time — a fleet whose flows join one by one — reallocates O(log n) times
// and fills its first tile in one, while a one-row matrix (a per-flow
// stepper's) keeps one row.
func (m *Mat) Reset(rows, cols int) *Mat {
	n := rows * cols
	if cap(m.Data) < n {
		c := max(n, 2*cap(m.Data))
		if rows > 1 {
			c = max(c, TileRows*cols)
		}
		m.Data = make([]float64, n, c)
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
// the tapes).
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
func matMulBias(p *Param, bias []float64, x, out *Mat, sc *gemmScratch) {
	matMul(p, bias, x, out, false, sc)
}

// matMulAcc computes out[r][i] += Σ_j W[i][j]·x[r][j] with the dot
// product summed separately, from 0 in j order, and added once.
func matMulAcc(p *Param, x, out *Mat, sc *gemmScratch) {
	matMul(p, nil, x, out, true, sc)
}

// matMul is both: per row r and output i one chain s = seed + W[i][0]·x[r][0]
// + W[i][1]·x[r][1] + … in j order, every product rounded before its add,
// seeded with bias[i] (0 when bias is nil), then stored in out[r][i] or,
// with add, added to it once. Every tier keeps that chain:
//
//   - AVX2, whole 16-row tiles: dotTile16, one batch row per lane;
//   - AVX2, the rows left over: one at a time through dotCols16, one output
//     per lane and 16 outputs a call; the columns past the last multiple of
//     4 finish in Go, and the outputs past the last multiple of 16 take the
//     scalar chain, four outputs side by side;
//   - without AVX2: eight rows per weight pass, then one row at a time, its
//     outputs four side by side.
func matMul(p *Param, bias []float64, x, out *Mat, add bool, sc *gemmScratch) {
	cols := p.Cols
	seed := func(i int) float64 {
		if bias == nil {
			return 0
		}
		return bias[i]
	}
	put := func(o []float64, i int, s float64) {
		if add {
			o[i] += s
		} else {
			o[i] = s
		}
	}
	r := 0
	if useAVX2 && cols > 0 {
		xt := sc.tile(cols)
		for ; r+TileRows <= x.Rows; r += TileRows {
			transposeTile(x, r, cols, xt)
			for i := 0; i < p.Rows; i++ {
				w := p.Data[i*cols : (i+1)*cols]
				// Filled only when there is a bias: scalar stores of zeros
				// right before the kernel's 32-byte loads of acc would stall
				// store forwarding on every output.
				var acc [TileRows]float64
				if bias != nil {
					b := bias[i]
					for l := range acc {
						acc[l] = b
					}
				}
				dotTile16(&w[0], &xt[0], cols, &acc)
				for l := 0; l < TileRows; l++ {
					put(out.Data, (r+l)*out.Cols+i, acc[l])
				}
			}
		}
	}
	for ; !useAVX2 && r+8 <= x.Rows; r += 8 {
		// Reslicing to cols lets the compiler drop the bounds checks in
		// the inner loop (len(w) == len(xN) == cols is then provable).
		x0, x1, x2, x3 := x.Row(r)[:cols], x.Row(r + 1)[:cols], x.Row(r + 2)[:cols], x.Row(r + 3)[:cols]
		x4, x5, x6, x7 := x.Row(r + 4)[:cols], x.Row(r + 5)[:cols], x.Row(r + 6)[:cols], x.Row(r + 7)[:cols]
		o0, o1, o2, o3 := out.Row(r), out.Row(r+1), out.Row(r+2), out.Row(r+3)
		o4, o5, o6, o7 := out.Row(r+4), out.Row(r+5), out.Row(r+6), out.Row(r+7)
		for i := 0; i < p.Rows; i++ {
			w := p.Data[i*cols : (i+1)*cols : (i+1)*cols]
			b := seed(i)
			s0, s1, s2, s3 := b, b, b, b
			s4, s5, s6, s7 := b, b, b, b
			for j, wj := range w {
				s0 += float64(wj * x0[j])
				s1 += float64(wj * x1[j])
				s2 += float64(wj * x2[j])
				s3 += float64(wj * x3[j])
				s4 += float64(wj * x4[j])
				s5 += float64(wj * x5[j])
				s6 += float64(wj * x6[j])
				s7 += float64(wj * x7[j])
			}
			put(o0, i, s0)
			put(o1, i, s1)
			put(o2, i, s2)
			put(o3, i, s3)
			put(o4, i, s4)
			put(o5, i, s5)
			put(o6, i, s6)
			put(o7, i, s7)
		}
	}
	for ; r < x.Rows; r++ {
		xr, or := x.Row(r)[:cols], out.Row(r)
		i := 0
		if useAVX2 && cols > 0 {
			n4 := cols &^ 3
			for ; i+16 <= p.Rows; i += 16 {
				w := p.Data[i*cols : (i+16)*cols] // dotCols16 reads these rows unchecked
				var acc [16]float64
				if bias != nil {
					copy(acc[:], bias[i:i+16])
				}
				dotCols16(&acc, &w[0], cols, &xr[0], n4)
				if n4 < cols {
					for k := range acc {
						for j := n4; j < cols; j++ {
							acc[k] += float64(w[k*cols+j] * xr[j])
						}
					}
				}
				for k := range acc {
					put(or, i+k, acc[k])
				}
			}
		}
		for ; i+4 <= p.Rows; i += 4 {
			// Four outputs' chains side by side, each in j order: the adds
			// of one need not wait for another's.
			w0 := p.Data[i*cols : (i+1)*cols : (i+1)*cols]
			w1 := p.Data[(i+1)*cols : (i+2)*cols : (i+2)*cols]
			w2 := p.Data[(i+2)*cols : (i+3)*cols : (i+3)*cols]
			w3 := p.Data[(i+3)*cols : (i+4)*cols : (i+4)*cols]
			s0, s1, s2, s3 := seed(i), seed(i+1), seed(i+2), seed(i+3)
			for j, xj := range xr {
				s0 += float64(w0[j] * xj)
				s1 += float64(w1[j] * xj)
				s2 += float64(w2[j] * xj)
				s3 += float64(w3[j] * xj)
			}
			put(or, i, s0)
			put(or, i+1, s1)
			put(or, i+2, s2)
			put(or, i+3, s3)
		}
		for ; i < p.Rows; i++ {
			w := p.Data[i*cols : (i+1)*cols : (i+1)*cols]
			s := seed(i)
			for j, wj := range w {
				s += float64(wj * xr[j])
			}
			put(or, i, s)
		}
	}
}

// batchForward computes out[r] = W·x[r] + b for every row, out resized to
// x.Rows × d.Outs.
func (d *Dense) batchForward(x, out *Mat, sc *gemmScratch) {
	out.Reset(x.Rows, d.Outs)
	matMulBias(d.W, d.B.Data, x, out, sc)
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

//go:build amd64

package nn

// useAVX2 gates the vectorized kernels: the forward's 16-row tile
// (transposeTile16, then one gemmTile16 call per layer, with dotTile16 for
// added outputs past the last group of four), its one-row kernel
// (dotCols16), LayerNorm's normalize step and leaky ReLU, the backward's
// lane kernel (axpyLanes) and, with actKernel, the activation kernel
// (act.go). The AVX2 path is bitwise identical to the scalar path: each
// SIMD lane carries one accumulator through the same mul-then-add sequence
// (no FMA — a fused multiply-add rounds differently, which would break the
// batched == sequential equivalence contract; TestAssemblyHasNoFusedMultiplyAdd
// scans gemm_amd64.s for one).
var useAVX2 = x86CpuidAVX2()

// x86CpuidAVX2 reports OS-enabled AVX2 (OSXSAVE + YMM state + CPUID.7
// EBX[5]); implemented in gemm_amd64.s.
func x86CpuidAVX2() bool

// dotTile16 accumulates, for one weight row w[0:n] against a 16-row
// transposed tile xt (layout xt[j*16+l] = x_l[j]):
//
//	acc[l] = acc[l] + w[0]·x_l[0] + w[1]·x_l[1] + … (in j order)
//
// Each lane's operation order matches the scalar dot product exactly.
// Implemented in gemm_amd64.s; only called when useAVX2 is true.
//
//go:noescape
func dotTile16(w *float64, xt *float64, n int, acc *[16]float64)

// gemmTile16 runs one dense layer over one 16-row transposed tile xt
// (layout xt[j*16+l] = x_l[j]), four outputs a group: for each group g <
// groups, outputs i = 4g..4g+3 — weight rows w + i·cols — of tile row l are
//
//	s = seed + w_i[0]·x_l[0] + w_i[1]·x_l[1] + … (in j order)
//
// seeded with bias[i] (0 when bias is nil), and stored in out[l·stride+i]
// or, with add, added to it once. Each output's operation order matches the
// scalar dot product exactly. The accumulators are transposed in registers
// and written one 32-byte row of four outputs at a time, so nothing past
// output 4·groups of a row is touched. Implemented in gemm_amd64.s; only
// called when useAVX2 is true, with cols > 0 and every row in bounds.
//
//go:noescape
func gemmTile16(out *float64, stride int, w *float64, cols int, xt *float64, bias *float64, groups int, add bool)

// transposeTile16 packs the first 4·groups columns of the 16 rows
// x + l·stride (l < 16) into xt with layout xt[j*16+l] = x_l[j].
// Implemented in gemm_amd64.s; only called when useAVX2 is true, with
// groups > 0 and every row in bounds.
//
//go:noescape
func transposeTile16(xt *float64, x *float64, stride int, groups int)

// dotCols16 accumulates, for one input row x[0:n] against the 16 weight
// rows w_k = w + k·stride (k < 16), in j order:
//
//	acc[k] = acc[k] + w_k[0]·x[0] + w_k[1]·x[1] + … + w_k[n-1]·x[n-1]
//
// n must be a multiple of 4. Each output's operation order matches the
// scalar dot product exactly. Implemented in gemm_amd64.s; only called when
// useAVX2 is true, with all 16 rows in bounds.
//
//go:noescape
func dotCols16(acc *[16]float64, w *float64, stride int, x *float64, n int)

// axpyLanes runs the backward's products (tape.go): four accumulator
// rows, lane k's at lb.out[k], take the n steps at steps in list order,
//
//	out_k[j] = out_k[j] + s·v[st.v+j]   for j < cols, s = lb.g[k][st.g]
//
// skipping the lane where s is ±0 (a step marked dense has no such scale:
// the eight-column blocks run it without looking); with bias,
// *lb.bias[k] = *lb.bias[k] + s first, over the same steps with the same
// skips. The rows are held in
// registers eight columns at a time across the whole list, and each
// element's operation order matches the scalar chain exactly. Nothing past a
// row's cols columns is read or written. Implemented in gemm_amd64.s; only
// called when useAVX2 is true, with n > 0, cols > 0 and everything in
// bounds.
//
//go:noescape
func axpyLanes(lb *laneBlock, v *float64, steps *laneStep, n, cols int, bias bool)

// lnNormRows is LayerNorm's normalize-and-affine step over rows row-major
// rows of cols columns, the first n of each (a multiple of 4):
//
//	xhat[r][i] = (x[r][i] − mu[r]) / std[r]
//	out[r][i]  = xhat[r][i]·gain[i] + beta[i]
//
// every operation rounded, as the scalar expressions. Implemented in
// gemm_amd64.s; only called when useAVX2 is true, with n > 0 and every row
// in bounds.
//
//go:noescape
func lnNormRows(out, xhat, x, gain, beta, mu, std *float64, rows, cols, n int)

// lreluGroups writes the leaky ReLU v·lreluSlope(v) of groups·4 elements at
// src to dst (which may be src). Implemented in gemm_amd64.s; only called
// when useAVX2 is true.
//
//go:noescape
func lreluGroups(dst, src *float64, groups int, alpha float64)

// lreluBackGroups is leakyReLUBack over groups·4 elements: d = d·slope(pre)
// with the slope of lreluSlope. Implemented in gemm_amd64.s; only called
// when useAVX2 is true, with groups > 0.
//
//go:noescape
func lreluBackGroups(d, pre *float64, groups int, alpha float64)

// lnBackGrads is the first half of LayerNorm's backward over the rows
// listed at rows (row-major, cols columns each), in list order, the first n
// columns of each (a multiple of 4): with dy the row of d,
//
//	gGrad[i] += dy[i]·xhat[i];  bGrad[i] += dy[i];  d[i] = dy[i]·gain[i]
//
// every operation rounded, as the scalar expressions. Implemented in
// gemm_amd64.s; only called when useAVX2 is true, with nrows > 0, n > 0
// and every row in bounds.
//
//go:noescape
func lnBackGrads(gGrad, bGrad, gain, d, xhat *float64, rows *int, nrows, cols, n int)

// lnBackFinish is the second half of LayerNorm's backward over the first n
// columns of one row (a multiple of 4):
//
//	d[i] = (d[i] − a − xhat[i]·s/cnt) / std
//
// every operation rounded, in the scalar expression's order. Implemented in
// gemm_amd64.s; only called when useAVX2 is true, with n > 0.
//
//go:noescape
func lnBackFinish(d, xhat *float64, n int, a, s, cnt, std float64)

// adamGroups is Adam.Update over groups·4 elements, every operation of the
// scalar update rounded in its order, the gradient cleared. Implemented in
// gemm_amd64.s; only called when useAVX2 is true, with groups > 0.
//
//go:noescape
func adamGroups(data, grad, m, v *float64, groups int, c *adamConsts)

// rowKinds sets kinds[r] to the rowNonzero and rowHasZero bits of row r of
// the rows×cols matrix at x. Implemented in gemm_amd64.s; only called when
// useAVX2 is true, with rows > 0 and cols >= 4.
//
//go:noescape
func rowKinds(kinds *uint8, x *float64, rows, cols int)

//go:build amd64

package nn

// useAVX2 gates the vectorized kernels: the forward's 16-row tile
// (transposeTile16, then one gemmTile16 call per layer, with dotTile16 for
// added outputs past the last group of four), its one-row kernel
// (dotCols16), LayerNorm's normalize step and leaky ReLU, the backward's
// row-blocked accumulation and, with actKernel, the activation kernel
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

// axpyList32 accumulates, for the n terms at terms in list order, the
// 32-element rows they name into acc[0:32]:
//
//	acc[j] = acc[j] + t.s·base[t.off+j]   for each term t, j < 32
//
// with the 32 sums held in registers across the whole list. Each element's
// operation order matches the scalar chain exactly. Implemented in
// gemm_amd64.s; only called when useAVX2 is true, with every row in bounds.
//
//go:noescape
func axpyList32(acc *float64, base *float64, terms *axpyTerm, n int)

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

//go:build amd64

package nn

// useAVX2 gates the vectorized kernels: the forward's GEMM tile and one-row
// kernel, the backward's row-blocked accumulation and, with actKernel, the
// activation kernel (act.go). The AVX2 path is bitwise identical
// to the scalar path: each SIMD lane carries one accumulator through the
// same mul-then-add sequence (no FMA — a
// fused multiply-add rounds differently, which would break the batched ==
// sequential equivalence contract).
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

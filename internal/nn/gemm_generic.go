//go:build !amd64

package nn

// Non-amd64 builds use the blocked scalar kernels only.
const useAVX2 = false

func dotTile16(w *float64, xt *float64, n int, acc *[16]float64) {
	panic("nn: dotTile16 without AVX2")
}

func dotCols16(acc *[16]float64, w *float64, stride int, x *float64, n int) {
	panic("nn: dotCols16 without AVX2")
}

func axpyList32(acc *float64, base *float64, terms *axpyTerm, n int) {
	panic("nn: axpyList32 without AVX2")
}

// No activation kernel: actTo runs the scalar functions.
const actKernel = false

func actGroups(op int, dst, src *float64, groups int) int {
	panic("nn: actGroups without AVX2")
}

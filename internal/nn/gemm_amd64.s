//go:build amd64

#include "textflag.h"

// func x86CpuidAVX2() bool
TEXT ·x86CpuidAVX2(SB), NOSPLIT, $0-1
	// CPUID.1: ECX[27] = OSXSAVE (XGETBV available and OS uses it).
	MOVQ $1, AX
	XORQ CX, CX
	CPUID
	MOVQ CX, R8
	SHRQ $27, R8
	ANDQ $1, R8
	JZ   no

	// XGETBV(0): EAX[2:1] = XMM and YMM state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// CPUID.7.0: EBX[5] = AVX2.
	MOVQ $7, AX
	XORQ CX, CX
	CPUID
	SHRQ $5, BX
	ANDQ $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func dotTile16(w *float64, xt *float64, n int, acc *[16]float64)
//
// Four YMM accumulators carry 16 batch rows. Per element j: broadcast
// w[j], then for each 4-lane group multiply by the tile column and add.
// VMULPD+VADDPD (not VFMADD) so every lane performs the exact scalar
// sequence acc = acc + (w[j] * x[j]) with intermediate rounding.
TEXT ·dotTile16(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ xt+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ acc+24(FP), DX

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3

	TESTQ CX, CX
	JZ    done

loop:
	VBROADCASTSD (SI), Y4

	VMULPD (DI), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(DI), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(DI), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(DI), Y4, Y8
	VADDPD Y8, Y3, Y3

	ADDQ $8, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// COLS4 runs four columns of the weight rows at r, r+s, r+2s, r+3s (s in
// BX, 3s in R8) into the accumulator acc, transposed in registers: two
// 128-bit loads per register pair rows 0 and 2 (Y8, Y10) and rows 1 and 3
// (Y9, Y11), columns j, j+1 (Y8, Y9) and j+2, j+3 (Y10, Y11); UNPCKLPD /
// UNPCKHPD then leave column j+c of the four rows, one output per lane, in
// Y12+c. Each is multiplied by its broadcast x[j+c] (Y4..Y7) and added in
// j order. Loading the halves with VINSERTF128 keeps the shuffle port to
// the four unpacks (a full-width load and VPERM2F128 transpose needs eight).
#define COLS4(r, acc) \
	VMOVUPD     (r), X8;                    \
	VINSERTF128 $1, (r)(BX*2), Y8, Y8;      \
	VMOVUPD     (r)(BX*1), X9;              \
	VINSERTF128 $1, (r)(R8*1), Y9, Y9;      \
	VMOVUPD     16(r), X10;                 \
	VINSERTF128 $1, 16(r)(BX*2), Y10, Y10;  \
	VMOVUPD     16(r)(BX*1), X11;           \
	VINSERTF128 $1, 16(r)(R8*1), Y11, Y11;  \
	VUNPCKLPD   Y9, Y8, Y12;                \
	VUNPCKHPD   Y9, Y8, Y13;                \
	VUNPCKLPD   Y11, Y10, Y14;              \
	VUNPCKHPD   Y11, Y10, Y15;              \
	VMULPD      Y4, Y12, Y12;               \
	VADDPD      Y12, acc, acc;              \
	VMULPD      Y5, Y13, Y13;               \
	VADDPD      Y13, acc, acc;              \
	VMULPD      Y6, Y14, Y14;               \
	VADDPD      Y14, acc, acc;              \
	VMULPD      Y7, Y15, Y15;               \
	VADDPD      Y15, acc, acc

// func dotCols16(acc *[16]float64, w *float64, stride int, x *float64, n int)
//
// One input row against 16 weight rows w + k·stride, k < 16: four YMM
// accumulators carry the 16 outputs, lane l of Y(g) output 4g+l. Per four
// columns: broadcast x[j..j+3], then per 4-output group COLS4. VMULPD then
// VADDPD (not VFMADD), so every lane performs the exact scalar sequence
// acc = acc + (w[j] * x[j]) with intermediate rounding. n is a multiple of
// four; the caller finishes any remaining columns.
TEXT ·dotCols16(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ stride+16(FP), BX
	MOVQ x+24(FP), DX
	MOVQ n+32(FP), CX

	SHLQ $3, BX            // row stride in bytes
	LEAQ (BX)(BX*2), R8    // three rows
	LEAQ (SI)(BX*4), R9    // rows 4..7
	LEAQ (R9)(BX*4), R10   // rows 8..11
	LEAQ (R10)(BX*4), R11  // rows 12..15

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

	SHRQ $2, CX
	JZ   colsdone

cols:
	VBROADCASTSD (DX), Y4
	VBROADCASTSD 8(DX), Y5
	VBROADCASTSD 16(DX), Y6
	VBROADCASTSD 24(DX), Y7
	COLS4(SI, Y0)
	COLS4(R9, Y1)
	COLS4(R10, Y2)
	COLS4(R11, Y3)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, DX
	DECQ CX
	JNZ  cols

colsdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func axpyList32(acc *float64, base *float64, terms *axpyTerm, n int)
//
// Eight YMM accumulators hold acc[0:32] across the whole list. Per term:
// broadcast the scale, then for each 4-lane group multiply the row at
// base + off and add — VMULPD+VADDPD, so every lane performs the scalar
// acc = acc + (s * v) with intermediate rounding, terms in list order.
TEXT ·axpyList32(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DX
	MOVQ base+8(FP), SI
	MOVQ terms+16(FP), DI
	MOVQ n+24(FP), CX

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7

	TESTQ CX, CX
	JZ    store

term:
	VBROADCASTSD (DI), Y8
	MOVQ         8(DI), AX
	LEAQ         (SI)(AX*8), BX

	VMULPD (BX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(BX), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(BX), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(BX), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(BX), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(BX), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(BX), Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 224(BX), Y8, Y9
	VADDPD Y9, Y7, Y7

	ADDQ $16, DI
	DECQ CX
	JNZ  term

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

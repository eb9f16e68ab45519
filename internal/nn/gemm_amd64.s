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

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

// LANE2 adds s·v to the accumulators a0, a1 of one lane — v in Y8, Y9, s
// the lane's scale at gp + AX·8 — unless s is ±0: the sign-shifting ADDQ
// leaves zero only for ±0, and then the lane is skipped, so no ±0·v (NaN for
// an infinite or NaN v) and no −0 + +0 reaches the accumulators. Otherwise
// VMULPD then VADDPD, the accumulator the first operand, as the scalar
// acc = acc + (s * v).
#define LANE2(gp, a0, a1, skip) \
	MOVQ         (gp)(AX*8), R12; \
	ADDQ         R12, R12;        \
	JZ           skip;            \
	VBROADCASTSD (gp)(AX*8), Y10; \
	VMULPD       Y8, Y10, Y11;    \
	VADDPD       Y11, a0, a0;     \
	VMULPD       Y9, Y10, Y12;    \
	VADDPD       Y12, a1, a1;     \
skip:

// DENSE2 is LANE2 for a step whose four scales are known not to be ±0.
#define DENSE2(gp, a0, a1) \
	VBROADCASTSD (gp)(AX*8), Y10; \
	VMULPD       Y8, Y10, Y11;    \
	VADDPD       Y11, a0, a0;     \
	VMULPD       Y9, Y10, Y12;    \
	VADDPD       Y12, a1, a1

// LANE1 is LANE2 for one accumulator per lane (v in Y8).
#define LANE1(gp, a, skip) \
	MOVQ         (gp)(AX*8), R12; \
	ADDQ         R12, R12;        \
	JZ           skip;            \
	VBROADCASTSD (gp)(AX*8), Y10; \
	VMULPD       Y8, Y10, Y11;    \
	VADDPD       Y11, a, a;       \
skip:

// BIAS1 adds one lane's scale at gp + AX·8 to the scalar acc unless it is
// ±0, as the scalar acc = acc + s.
#define BIAS1(gp, acc, skip) \
	MOVQ   (gp)(AX*8), R12; \
	ADDQ   R12, R12;        \
	JZ     skip;            \
	VADDSD (gp)(AX*8), acc, acc; \
skip:

// LOADROW2 and STOREROW2 move the two accumulators of the lane whose row
// pointer is at off(DI) — the block at column byte R13 of the row — and
// LOADROW1/STOREROW1 its one; LOADMASKED/STOREMASKED move the columns the
// mask Y13 selects and touch no other.
#define LOADROW2(off, a0, a1) \
	MOVQ    off(DI), BX;        \
	VMOVUPD (BX)(R13*1), a0;    \
	VMOVUPD 32(BX)(R13*1), a1

#define STOREROW2(off, a0, a1) \
	MOVQ    off(DI), BX;        \
	VMOVUPD a0, (BX)(R13*1);    \
	VMOVUPD a1, 32(BX)(R13*1)

#define LOADROW1(off, a) \
	MOVQ    off(DI), BX; \
	VMOVUPD (BX)(R13*1), a

#define STOREROW1(off, a) \
	MOVQ    off(DI), BX; \
	VMOVUPD a, (BX)(R13*1)

#define LOADMASKED(off, a) \
	MOVQ       off(DI), BX; \
	VMASKMOVPD (BX)(R13*1), Y13, a

#define STOREMASKED(off, a) \
	MOVQ       off(DI), BX; \
	VMASKMOVPD a, Y13, (BX)(R13*1)

// lanemask+8·(3−c) is the mask of the first c of four lanes, c = 1..3.
DATA lanemask<>+0(SB)/8, $0xffffffffffffffff
DATA lanemask<>+8(SB)/8, $0xffffffffffffffff
DATA lanemask<>+16(SB)/8, $0xffffffffffffffff
DATA lanemask<>+24(SB)/8, $0
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $48

// func axpyLanes(lb *laneBlock, v *float64, steps *laneStep, n, cols int, bias bool)
//
// Four accumulator rows, lane k's at lb.out[k], run through the n steps in
// list order: step i adds s·v[steps[i].v + j] to column j < cols of lane k,
// s = lb.g[k][steps[i].g], and skips the lane where s is ±0 — in the
// eight-column blocks only where the step is not marked dense, none of its
// scales ±0. With bias, the
// scales themselves are first added to *lb.bias[k] the same way. The rows
// run in blocks of eight columns held in registers across the whole list
// (Y0..Y7, two per lane), then a block of four, then the last one to three
// columns through masked loads and stores, so nothing past a row's cols
// columns is read or written. n > 0.
TEXT ·axpyLanes(SB), NOSPLIT, $0-41
	MOVQ lb+0(FP), DI
	MOVQ 32(DI), R8            // the lanes' scale bases
	MOVQ 40(DI), R9
	MOVQ 48(DI), R10
	MOVQ 56(DI), R11
	MOVQ v+8(FP), DX
	MOVQ cols+32(FP), R14      // columns left
	XORQ R13, R13              // the block's first column, in bytes

	MOVBQZX bias+40(FP), AX
	TESTQ   AX, AX
	JZ      wide
	MOVQ    64(DI), BX
	VMOVSD  (BX), X0
	MOVQ    72(DI), BX
	VMOVSD  (BX), X1
	MOVQ    80(DI), BX
	VMOVSD  (BX), X2
	MOVQ    88(DI), BX
	VMOVSD  (BX), X3
	MOVQ    steps+16(FP), SI
	MOVQ    n+24(FP), CX

biasstep:
	MOVQ (SI), AX
	BIAS1(R8, X0, bias0)
	BIAS1(R9, X1, bias1)
	BIAS1(R10, X2, bias2)
	BIAS1(R11, X3, bias3)
	ADDQ $24, SI
	DECQ CX
	JNZ  biasstep

	MOVQ   64(DI), BX
	VMOVSD X0, (BX)
	MOVQ   72(DI), BX
	VMOVSD X1, (BX)
	MOVQ   80(DI), BX
	VMOVSD X2, (BX)
	MOVQ   88(DI), BX
	VMOVSD X3, (BX)

wide:
	CMPQ R14, $8
	JLT  narrow
	LOADROW2(0, Y0, Y1)
	LOADROW2(8, Y2, Y3)
	LOADROW2(16, Y4, Y5)
	LOADROW2(24, Y6, Y7)
	MOVQ steps+16(FP), SI
	MOVQ n+24(FP), CX

widestep:
	MOVQ    (SI), AX           // the scales' offset
	MOVQ    8(SI), BX          // the vector's
	VMOVUPD (DX)(BX*8), Y8
	VMOVUPD 32(DX)(BX*8), Y9
	CMPB    16(SI), $0
	JNE     widedense
	LANE2(R8, Y0, Y1, wide0)
	LANE2(R9, Y2, Y3, wide1)
	LANE2(R10, Y4, Y5, wide2)
	LANE2(R11, Y6, Y7, wide3)
	JMP     widenext

widedense:
	DENSE2(R8, Y0, Y1)
	DENSE2(R9, Y2, Y3)
	DENSE2(R10, Y4, Y5)
	DENSE2(R11, Y6, Y7)

widenext:
	ADDQ $24, SI
	DECQ CX
	JNZ  widestep

	STOREROW2(0, Y0, Y1)
	STOREROW2(8, Y2, Y3)
	STOREROW2(16, Y4, Y5)
	STOREROW2(24, Y6, Y7)
	ADDQ $64, DX
	ADDQ $64, R13
	SUBQ $8, R14
	JMP  wide

narrow:
	CMPQ R14, $4
	JLT  tail
	LOADROW1(0, Y0)
	LOADROW1(8, Y1)
	LOADROW1(16, Y2)
	LOADROW1(24, Y3)
	MOVQ steps+16(FP), SI
	MOVQ n+24(FP), CX

narrowstep:
	MOVQ    (SI), AX
	MOVQ    8(SI), BX
	VMOVUPD (DX)(BX*8), Y8
	LANE1(R8, Y0, narrow0)
	LANE1(R9, Y1, narrow1)
	LANE1(R10, Y2, narrow2)
	LANE1(R11, Y3, narrow3)
	ADDQ $24, SI
	DECQ CX
	JNZ  narrowstep

	STOREROW1(0, Y0)
	STOREROW1(8, Y1)
	STOREROW1(16, Y2)
	STOREROW1(24, Y3)
	ADDQ $32, DX
	ADDQ $32, R13
	SUBQ $4, R14

tail:
	TESTQ R14, R14
	JZ    done
	LEAQ  lanemask<>(SB), AX
	MOVQ  $3, BX
	SUBQ  R14, BX
	VMOVUPD (AX)(BX*8), Y13
	LOADMASKED(0, Y0)
	LOADMASKED(8, Y1)
	LOADMASKED(16, Y2)
	LOADMASKED(24, Y3)
	MOVQ steps+16(FP), SI
	MOVQ n+24(FP), CX

tailstep:
	MOVQ       (SI), AX
	MOVQ       8(SI), BX
	VMASKMOVPD (DX)(BX*8), Y13, Y8
	LANE1(R8, Y0, tail0)
	LANE1(R9, Y1, tail1)
	LANE1(R10, Y2, tail2)
	LANE1(R11, Y3, tail3)
	ADDQ $24, SI
	DECQ CX
	JNZ  tailstep

	STOREMASKED(0, Y0)
	STOREMASKED(8, Y1)
	STOREMASKED(16, Y2)
	STOREMASKED(24, Y3)

done:
	VZEROUPPER
	RET

// MUL2ADD multiplies the two tile vectors Y8, Y9 by the broadcast weight at
// the address wj and adds the products to the accumulators lo and hi:
// VMULPD then VADDPD, the accumulator the first operand, as the scalar
// acc = acc + (w[j] * x[j]).
#define MUL2ADD(wj, lo, hi) \
	VBROADCASTSD wj, Y10;  \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, lo, lo;  \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, hi, hi

// TRANSPOSE4 turns four accumulators a, b, c, d — outputs i..i+3, lane l
// batch row l — into four row vectors Y12..Y15, row l holding outputs
// i..i+3 of batch row l.
#define TRANSPOSE4(a, b, c, d) \
	VUNPCKLPD  b, a, Y8;            \
	VUNPCKHPD  b, a, Y9;            \
	VUNPCKLPD  d, c, Y10;           \
	VUNPCKHPD  d, c, Y11;           \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15

// STORE4 stores the rows Y12..Y15 at AX, AX+BX, AX+2BX, AX+3BX and leaves
// AX past them.
#define STORE4 \
	VMOVUPD Y12, (AX); \
	ADDQ    BX, AX;    \
	VMOVUPD Y13, (AX); \
	ADDQ    BX, AX;    \
	VMOVUPD Y14, (AX); \
	ADDQ    BX, AX;    \
	VMOVUPD Y15, (AX); \
	ADDQ    BX, AX

// ADD4 is STORE4 for an accumulating product: each row is added to what
// the output holds, out the first operand, as the scalar o[i] += s.
#define ADD4 \
	VMOVUPD (AX), Y8;      \
	VADDPD  Y12, Y8, Y8;   \
	VMOVUPD Y8, (AX);      \
	ADDQ    BX, AX;        \
	VMOVUPD (AX), Y9;      \
	VADDPD  Y13, Y9, Y9;   \
	VMOVUPD Y9, (AX);      \
	ADDQ    BX, AX;        \
	VMOVUPD (AX), Y10;     \
	VADDPD  Y14, Y10, Y10; \
	VMOVUPD Y10, (AX);     \
	ADDQ    BX, AX;        \
	VMOVUPD (AX), Y11;     \
	VADDPD  Y15, Y11, Y11; \
	VMOVUPD Y11, (AX);     \
	ADDQ    BX, AX

// HALF8 runs one 8-row half of a tile — tile rows xoff/8 .. xoff/8+7 — for
// the four outputs of the current group, leaving output k's rows in
// Y(2k) (the first four) and Y(2k+1) (the last four): the accumulators
// are seeded from the broadcast bias (R9, or 0 when R9 is nil), then every
// column j in order adds its four weights' products. The labels are the
// macro's arguments, so each expansion has its own.
#define HALF8(xoff, zero, seeded, loop) \
	TESTQ        R9, R9;       \
	JZ           zero;         \
	VBROADCASTSD (R9), Y0;     \
	VMOVAPD      Y0, Y1;       \
	VBROADCASTSD 8(R9), Y2;    \
	VMOVAPD      Y2, Y3;       \
	VBROADCASTSD 16(R9), Y4;   \
	VMOVAPD      Y4, Y5;       \
	VBROADCASTSD 24(R9), Y6;   \
	VMOVAPD      Y6, Y7;       \
	JMP          seeded;       \
zero:                          \
	VXORPD       Y0, Y0, Y0;   \
	VXORPD       Y1, Y1, Y1;   \
	VXORPD       Y2, Y2, Y2;   \
	VXORPD       Y3, Y3, Y3;   \
	VXORPD       Y4, Y4, Y4;   \
	VXORPD       Y5, Y5, Y5;   \
	VXORPD       Y6, Y6, Y6;   \
	VXORPD       Y7, Y7, Y7;   \
seeded:                        \
	MOVQ         SI, R14;      \
	LEAQ         xoff(DX), R13; \
	MOVQ         CX, AX;       \
loop:                          \
	VMOVUPD      (R13), Y8;    \
	VMOVUPD      32(R13), Y9;  \
	MUL2ADD((R14), Y0, Y1);    \
	MUL2ADD((R14)(R8*1), Y2, Y3); \
	MUL2ADD((R14)(R8*2), Y4, Y5); \
	MUL2ADD((R14)(R12*1), Y6, Y7); \
	ADDQ         $8, R14;      \
	ADDQ         $128, R13;    \
	DECQ         AX;           \
	JNZ          loop

// OUT8 writes the half HALF8 left in Y0..Y7 to the eight output rows from
// AX on: transposed in registers, one 32-byte store (or load, add and
// store) per row.
#define OUT8(add, done) \
	TESTQ R11, R11;              \
	JNZ   add;                   \
	TRANSPOSE4(Y0, Y2, Y4, Y6);  \
	STORE4;                      \
	TRANSPOSE4(Y1, Y3, Y5, Y7);  \
	STORE4;                      \
	JMP   done;                  \
add:                             \
	TRANSPOSE4(Y0, Y2, Y4, Y6);  \
	ADD4;                        \
	TRANSPOSE4(Y1, Y3, Y5, Y7);  \
	ADD4;                        \
done:

// func gemmTile16(out *float64, stride int, w *float64, cols int, xt *float64, bias *float64, groups int, add bool)
//
// One dense layer over one 16-row tile xt (layout xt[j*16+l] = x_l[j]),
// four outputs at a time: for each group g < groups, outputs i = 4g..4g+3
// (weight rows w + i·cols) of tile row l land in out[l·stride + i]. Every
// output's chain is the scalar one — seeded with bias[i] (0 when bias is
// nil), then w[i][j]·x_l[j] added for j in order, VMULPD then VADDPD, never
// fused — and is stored or, with add, added to the output once. cols > 0.
TEXT ·gemmTile16(SB), NOSPLIT, $0-57
	MOVQ    out+0(FP), DI
	MOVQ    stride+8(FP), BX
	MOVQ    w+16(FP), SI
	MOVQ    cols+24(FP), CX
	MOVQ    xt+32(FP), DX
	MOVQ    bias+40(FP), R9
	MOVQ    groups+48(FP), R10
	MOVBQZX add+56(FP), R11

	SHLQ $3, BX            // output row stride in bytes
	MOVQ CX, R8
	SHLQ $3, R8            // weight row stride in bytes
	LEAQ (R8)(R8*2), R12   // three weight rows

group:
	HALF8(0, zero0, seeded0, loop0)
	MOVQ DI, AX
	OUT8(add0, done0)
	HALF8(64, zero1, seeded1, loop1)
	LEAQ (DI)(BX*8), AX
	OUT8(add1, done1)

	ADDQ  $32, DI          // the next four outputs
	LEAQ  (SI)(R8*4), SI
	TESTQ R9, R9
	JZ    nobias
	ADDQ  $32, R9

nobias:
	DECQ R10
	JNZ  group

	VZEROUPPER
	RET

// func lnNormRows(out, xhat, x, gain, beta, mu, std *float64, rows, cols, n int)
//
// LayerNorm's normalize-and-affine step over rows row-major rows of cols
// columns, the first n (a multiple of 4) of each, four columns at a time:
// xhat = (x − mu[r]) / std[r], out = xhat·g + b — VSUBPD, VDIVPD, VMULPD,
// VADDPD, each correctly rounded and in the scalar expression's operand
// order. n > 0.
TEXT ·lnNormRows(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ gain+24(FP), R8
	MOVQ beta+32(FP), R9
	MOVQ mu+40(FP), R10
	MOVQ std+48(FP), R11
	MOVQ rows+56(FP), R12
	MOVQ cols+64(FP), BX
	MOVQ n+72(FP), CX
	SHLQ $3, BX            // row stride in bytes
	SHRQ $2, CX            // groups of four columns per row

row:
	VBROADCASTSD (R10), Y4 // mu
	VBROADCASTSD (R11), Y5 // std
	XORQ AX, AX            // column offset in bytes
	MOVQ CX, R13

col:
	VMOVUPD (DX)(AX*1), Y0
	VSUBPD  Y4, Y0, Y0     // x − mu
	VDIVPD  Y5, Y0, Y0     // / std
	VMOVUPD Y0, (SI)(AX*1)
	VMULPD  (R8)(AX*1), Y0, Y1 // xhat·g
	VADDPD  (R9)(AX*1), Y1, Y1 // + b
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    R13
	JNZ     col

	ADDQ BX, DI
	ADDQ BX, SI
	ADDQ BX, DX
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  row

	VZEROUPPER
	RET

// func lreluGroups(dst, src *float64, groups int, alpha float64)
//
// Leaky ReLU over groups·4 elements, four at a time: the slope is 1 where
// v >= 0 (an ordered compare, so NaN takes alpha) and alpha elsewhere, and
// dst = v·slope — the scalar lreluSlope and product, lane by lane.
TEXT ·lreluGroups(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         groups+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y3
	MOVQ         $0x3ff0000000000000, AX // 1.0
	VMOVQ        AX, X2
	VBROADCASTSD X2, Y2
	VXORPD       Y4, Y4, Y4

lrelu:
	VMOVUPD   (SI), Y0
	VCMPPD    $0x1d, Y4, Y0, Y1 // v >= 0, ordered
	VBLENDVPD Y1, Y2, Y3, Y1    // 1 where set, alpha elsewhere
	VMULPD    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       lrelu

	VZEROUPPER
	RET

// COLS4T transposes four columns of the rows at r, r+BX, r+2BX, r+R8 (R8
// = 3BX) — loaded as COLS4 loads them — and stores column c of the four
// rows at off + c·128(DI), one 32-byte store each.
#define COLS4T(r, off) \
	VMOVUPD     (r), X8;                  \
	VINSERTF128 $1, (r)(BX*2), Y8, Y8;    \
	VMOVUPD     (r)(BX*1), X9;            \
	VINSERTF128 $1, (r)(R8*1), Y9, Y9;    \
	VMOVUPD     16(r), X10;               \
	VINSERTF128 $1, 16(r)(BX*2), Y10, Y10; \
	VMOVUPD     16(r)(BX*1), X11;         \
	VINSERTF128 $1, 16(r)(R8*1), Y11, Y11; \
	VUNPCKLPD   Y9, Y8, Y12;              \
	VUNPCKHPD   Y9, Y8, Y13;              \
	VUNPCKLPD   Y11, Y10, Y14;            \
	VUNPCKHPD   Y11, Y10, Y15;            \
	VMOVUPD     Y12, off(DI);             \
	VMOVUPD     Y13, off+128(DI);         \
	VMOVUPD     Y14, off+256(DI);         \
	VMOVUPD     Y15, off+384(DI)

// func transposeTile16(xt *float64, x *float64, stride int, groups int)
//
// Packs the first 4·groups columns of the 16 rows x + l·stride (l < 16)
// into xt with layout xt[j*16+l] = x_l[j], four columns of four rows at a
// time. groups > 0.
TEXT ·transposeTile16(SB), NOSPLIT, $0-32
	MOVQ xt+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ stride+16(FP), BX
	MOVQ groups+24(FP), CX
	SHLQ $3, BX            // row stride in bytes
	LEAQ (BX)(BX*2), R8    // three rows
	LEAQ (SI)(BX*4), R9    // rows 4..7
	LEAQ (R9)(BX*4), R10   // rows 8..11
	LEAQ (R10)(BX*4), R11  // rows 12..15

tcols:
	COLS4T(SI, 0)
	COLS4T(R9, 32)
	COLS4T(R10, 64)
	COLS4T(R11, 96)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $512, DI
	DECQ CX
	JNZ  tcols

	VZEROUPPER
	RET

// func lreluBackGroups(d, pre *float64, groups int, alpha float64)
//
// Leaky ReLU's backward over groups·4 elements, four at a time: the slope
// of pre — 1 where pre >= 0 (ordered, so NaN takes alpha), alpha elsewhere
// — scales d in place, d = d·slope, the scalar leakyReLUBack lane by lane.
TEXT ·lreluBackGroups(SB), NOSPLIT, $0-32
	MOVQ         d+0(FP), DI
	MOVQ         pre+8(FP), SI
	MOVQ         groups+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y3
	MOVQ         $0x3ff0000000000000, AX // 1.0
	VMOVQ        AX, X2
	VBROADCASTSD X2, Y2
	VXORPD       Y4, Y4, Y4

lrelub:
	VMOVUPD   (SI), Y0
	VCMPPD    $0x1d, Y4, Y0, Y1 // pre >= 0, ordered
	VBLENDVPD Y1, Y2, Y3, Y1    // 1 where set, alpha elsewhere
	VMULPD    (DI), Y1, Y1      // d·slope
	VMOVUPD   Y1, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       lrelub

	VZEROUPPER
	RET

// func lnBackGrads(gGrad, bGrad, gain, d, xhat *float64, rows *int, nrows, cols, n int)
//
// The first half of LayerNorm's backward over the rows listed at rows, in
// list order, the first n columns (a multiple of 4) of each, four at a
// time: with dy the row of d, gGrad += dy·xhat, bGrad += dy and
// d = dy·gain — each operation rounded, the accumulator the first operand,
// as the scalar expressions. nrows > 0, n > 0.
TEXT ·lnBackGrads(SB), NOSPLIT, $0-72
	MOVQ gGrad+0(FP), DI
	MOVQ bGrad+8(FP), SI
	MOVQ gain+16(FP), R8
	MOVQ d+24(FP), R9
	MOVQ xhat+32(FP), R10
	MOVQ rows+40(FP), R11
	MOVQ nrows+48(FP), R12
	MOVQ cols+56(FP), BX
	MOVQ n+64(FP), CX
	SHLQ $3, BX            // row stride in bytes
	SHRQ $2, CX            // groups of four columns per row

lnbrow:
	MOVQ  (R11), AX
	IMULQ BX, AX
	LEAQ  (R9)(AX*1), DX   // the row of d
	LEAQ  (R10)(AX*1), R13 // the row of xhat
	XORQ  AX, AX           // column offset in bytes
	MOVQ  CX, R14

lnbcol:
	VMOVUPD (DX)(AX*1), Y0      // dy
	VMULPD  (R13)(AX*1), Y0, Y1 // dy·xhat
	VMOVUPD (DI)(AX*1), Y2
	VADDPD  Y1, Y2, Y2          // gGrad + dy·xhat
	VMOVUPD Y2, (DI)(AX*1)
	VMOVUPD (SI)(AX*1), Y3
	VADDPD  Y0, Y3, Y3          // bGrad + dy
	VMOVUPD Y3, (SI)(AX*1)
	VMULPD  (R8)(AX*1), Y0, Y4  // dy·gain
	VMOVUPD Y4, (DX)(AX*1)
	ADDQ    $32, AX
	DECQ    R14
	JNZ     lnbcol

	ADDQ $8, R11
	DECQ R12
	JNZ  lnbrow

	VZEROUPPER
	RET

// func lnBackFinish(d, xhat *float64, n int, a, s, cnt, std float64)
//
// The second half of LayerNorm's backward over one row's first n columns
// (a multiple of 4), four at a time: d = ((d − a) − (xhat·s)/cnt) / std —
// VSUBPD, VMULPD, VDIVPD, VSUBPD, VDIVPD, each rounded and in the scalar
// expression's operand order. n > 0.
TEXT ·lnBackFinish(SB), NOSPLIT, $0-56
	MOVQ         d+0(FP), DI
	MOVQ         xhat+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y4
	VBROADCASTSD s+32(FP), Y5
	VBROADCASTSD cnt+40(FP), Y6
	VBROADCASTSD std+48(FP), Y7
	SHRQ         $2, CX

lnbfin:
	VMOVUPD (SI), Y1
	VMULPD  Y5, Y1, Y1     // xhat·s
	VDIVPD  Y6, Y1, Y1     // / cnt
	VMOVUPD (DI), Y0
	VSUBPD  Y4, Y0, Y0     // d − a
	VSUBPD  Y1, Y0, Y0     // − xhat·s/cnt
	VDIVPD  Y7, Y0, Y0     // / std
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     lnbfin

	VZEROUPPER
	RET

// func adamGroups(data, grad, m, v *float64, groups int, c *adamConsts)
//
// One Adam step over groups·4 elements, four at a time, each lane the
// scalar update's operations, rounded, in Go's left-to-right order:
//
//	m    = b1·m + c1·g                      (c1 = 1 − b1)
//	v    = b2·v + (c2·g)·g                  (c2 = 1 − b2)
//	data = data − (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
//
// VMULPD, VADDPD, VDIVPD, VSQRTPD and VSUBPD, never fused and with no
// reciprocal; the gradient is cleared in the same pass.
TEXT ·adamGroups(SB), NOSPLIT, $0-48
	MOVQ         data+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         groups+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSD 0(AX), Y8   // b1
	VBROADCASTSD 8(AX), Y9   // c1
	VBROADCASTSD 16(AX), Y10 // b2
	VBROADCASTSD 24(AX), Y11 // c2
	VBROADCASTSD 32(AX), Y12 // lr
	VBROADCASTSD 40(AX), Y13 // bc1
	VBROADCASTSD 48(AX), Y14 // bc2
	VBROADCASTSD 56(AX), Y15 // eps
	VXORPD       Y7, Y7, Y7

adam:
	VMOVUPD (SI), Y0       // g
	VMOVUPD Y7, (SI)
	VMOVUPD (R8), Y1
	VMULPD  Y1, Y8, Y1     // b1·m
	VMULPD  Y0, Y9, Y2     // c1·g
	VADDPD  Y2, Y1, Y1     // m
	VMOVUPD Y1, (R8)
	VMOVUPD (R9), Y2
	VMULPD  Y2, Y10, Y2    // b2·v
	VMULPD  Y0, Y11, Y3    // c2·g
	VMULPD  Y0, Y3, Y3     // (c2·g)·g
	VADDPD  Y3, Y2, Y2     // v
	VMOVUPD Y2, (R9)
	VDIVPD  Y13, Y1, Y1    // m/bc1
	VMULPD  Y1, Y12, Y1    // lr·(m/bc1)
	VDIVPD  Y14, Y2, Y2    // v/bc2
	VSQRTPD Y2, Y2
	VADDPD  Y15, Y2, Y2    // sqrt(v/bc2) + eps
	VDIVPD  Y2, Y1, Y1     // (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
	VMOVUPD (DI), Y0
	VSUBPD  Y1, Y0, Y0     // data − step
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     adam

	VZEROUPPER
	RET

// func rowKinds(kinds *uint8, x *float64, rows, cols int)
//
// Classifies every row of x (row-major, cols >= 4 columns): kinds[r] has
// bit 0 set if row r holds an element that is not ±0 and bit 1 if it holds
// one that is. Four columns at a time, an ordered compare with 0 — true for
// ±0 only, false for NaN — ORed (some lane ±0) and ANDed (every lane ±0)
// across the row; the last four columns are read first, so the columns past
// the last multiple of 4 are covered. rows > 0.
TEXT ·rowKinds(SB), NOSPLIT, $0-32
	MOVQ   kinds+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   rows+16(FP), R8
	MOVQ   cols+24(FP), R9
	MOVQ   R9, R11
	SHLQ   $3, R11         // row stride in bytes
	SHRQ   $2, R9          // whole groups of four columns
	VXORPD Y15, Y15, Y15

kindrow:
	VMOVUPD -32(SI)(R11*1), Y0 // the row's last four columns
	VCMPPD  $0, Y15, Y0, Y1    // ±0 lanes
	VMOVAPD Y1, Y2
	MOVQ    R9, CX
	XORQ    BX, BX

kindgroup:
	VMOVUPD (SI)(BX*1), Y0
	VCMPPD  $0, Y15, Y0, Y0
	VORPD   Y0, Y1, Y1         // some element ±0
	VANDPD  Y0, Y2, Y2         // every element ±0
	ADDQ    $32, BX
	DECQ    CX
	JNZ     kindgroup

	VMOVMSKPD Y1, AX
	VMOVMSKPD Y2, BX
	XORQ      R12, R12
	CMPQ      BX, $15
	JEQ       kindzeros
	ORQ       $1, R12

kindzeros:
	TESTQ AX, AX
	JZ    kindstore
	ORQ   $2, R12

kindstore:
	MOVB R12, (DI)
	INCQ DI
	ADDQ R11, SI
	DECQ R8
	JNZ  kindrow

	VZEROUPPER
	RET

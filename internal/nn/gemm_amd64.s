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

//go:build amd64

#include "textflag.h"

// The activation kernels (act.go): the fused multiply-add path of math.Exp's
// amd64 assembly ($GOROOT/src/math/exp_amd64.s) four lanes wide, operation
// by operation, and sigmoid and tanh built on it the way the math package and
// sigmoid build them. Only the ordinary path is copied: a group of four whose exp
// arguments are not all within [−708, 709] — where the scalar path neither
// overflows nor goes subnormal in its ldexp — is left to the caller.

// Entry k of actConst (act_amd64.go), four lanes.
#define LOG2E ·actConst+0(SB)
#define LN2U ·actConst+32(SB)
#define LN2L ·actConst+64(SB)
#define C0625 ·actConst+96(SB)
#define T8 ·actConst+128(SB)
#define T7 ·actConst+160(SB)
#define T6 ·actConst+192(SB)
#define T5 ·actConst+224(SB)
#define T4 ·actConst+256(SB)
#define T3 ·actConst+288(SB)
#define HALF ·actConst+320(SB)
#define ONE ·actConst+352(SB)
#define TWO ·actConst+384(SB)
#define EXPLO ·actConst+416(SB)
#define EXPHI ·actConst+448(SB)
#define SIGN ·actConst+480(SB)
#define ABS ·actConst+512(SB)
#define TANHBIG ·actConst+544(SB)
#define TANHMID ·actConst+576(SB)
#define TP0 ·actConst+608(SB)
#define TP1 ·actConst+640(SB)
#define TP2 ·actConst+672(SB)
#define TQ0 ·actConst+704(SB)
#define TQ1 ·actConst+736(SB)
#define TQ2 ·actConst+768(SB)

// EXPRANGE jumps to stop unless every lane of x is within [−708, 709]
// (a NaN is not). Clobbers t, u and AX.
#define EXPRANGE(x, t, u) \
	VCMPPD    $0x1d, EXPLO, x, t; \
	VCMPPD    $0x12, EXPHI, x, u; \
	VANDPD    u, t, t; \
	VMOVMSKPD t, AX; \
	CMPQ      AX, $15; \
	JNE       stop

// EXPREDUCE: k = round(x·log2 e) as int32 lanes in ik and as doubles in k.
#define EXPREDUCE(x, k, ik) \
	VMULPD     LOG2E, x, k; \
	VCVTPD2DQY k, ik; \
	VCVTDQ2PD  ik, k

// LDEXP multiplies x by 2^k, k the int32 lanes of ik (iy the same register
// four 64-bit lanes wide): (k<<52) + bits(1.0) is the double 2^k.
#define LDEXP(x, ik, iy) \
	VPMOVSXDQ ik, iy; \
	VPSLLQ    $52, iy, iy; \
	VPADDQ    ONE, iy, iy; \
	VMULPD    iy, x, x

// EXP replaces x with exp(x) by archExp's FMA path; k, ik/iy and p are
// scratch.
#define EXP(x, k, ik, iy, p) \
	EXPREDUCE(x, k, ik); \
	VFNMADD231PD LN2U, k, x; \
	VFNMADD231PD LN2L, k, x; \
	VMULPD       C0625, x, x; \
	VMOVUPD      T8, p; \
	VFMADD213PD  T7, x, p; \
	VFMADD213PD  T6, x, p; \
	VFMADD213PD  T5, x, p; \
	VFMADD213PD  T4, x, p; \
	VFMADD213PD  T3, x, p; \
	VFMADD213PD  HALF, x, p; \
	VFMADD213PD  ONE, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VFMADD213PD  ONE, p, x; \
	LDEXP(x, ik, iy)

// SIGMOID: Y0 = 1/(1+exp(−Y0)), the group's lanes checked on −Y0.
#define SIGMOID \
	VXORPD  SIGN, Y0, Y0; \
	EXPRANGE(Y0, Y4, Y5); \
	EXP(Y0, Y1, X2, Y2, Y3); \
	VADDPD  ONE, Y0, Y0; \
	VMOVUPD ONE, Y1; \
	VDIVPD  Y0, Y1, Y0

// TANH: Y0 = tanh(Y0) by math.tanh's three branches, every lane through
// each and the results blended: z = |x|; above 0.5·MAXLOG ±1; from 0.625
// ±(1 − 2/(exp(2z)+1)); below, the rational function (x itself at ±0).
// exp runs on 2·min(z, 0.5·MAXLOG), within range whatever the lane; only a
// NaN stops the group.
#define TANH \
	VCMPPD    $3, Y0, Y0, Y4; \
	VMOVMSKPD Y4, AX; \
	TESTQ     AX, AX; \
	JNZ       stop; \
	VANDPD    ABS, Y0, Y5; \
	VANDPD    SIGN, Y0, Y8; \
	VMINPD    TANHBIG, Y5, Y6; \
	VADDPD    Y6, Y6, Y6; \
	EXP(Y6, Y1, X2, Y2, Y3); \
	VADDPD    ONE, Y6, Y6; \
	VMOVUPD   TWO, Y7; \
	VDIVPD    Y6, Y7, Y6; \
	VMOVUPD   ONE, Y7; \
	VSUBPD    Y6, Y7, Y6; \
	VORPD     Y8, Y6, Y6; \
	VMULPD    Y0, Y0, Y9; \
	VMULPD    TP0, Y9, Y10; \
	VADDPD    TP1, Y10, Y10; \
	VMULPD    Y9, Y10, Y10; \
	VADDPD    TP2, Y10, Y10; \
	VMULPD    Y9, Y0, Y11; \
	VMULPD    Y10, Y11, Y11; \
	VADDPD    TQ0, Y9, Y10; \
	VMULPD    Y9, Y10, Y10; \
	VADDPD    TQ1, Y10, Y10; \
	VMULPD    Y9, Y10, Y10; \
	VADDPD    TQ2, Y10, Y10; \
	VDIVPD    Y10, Y11, Y11; \
	VADDPD    Y11, Y0, Y11; \
	VCMPPD    $0x1d, TANHMID, Y5, Y12; \
	VBLENDVPD Y12, Y6, Y11, Y11; \
	VCMPPD    $0x1e, TANHBIG, Y5, Y12; \
	VORPD     ONE, Y8, Y13; \
	VBLENDVPD Y12, Y13, Y11, Y11; \
	VXORPD    Y13, Y13, Y13; \
	VCMPPD    $0, Y13, Y0, Y12; \
	VBLENDVPD Y12, Y0, Y11, Y11; \
	VMOVAPD   Y11, Y0

// GROUPLOOP runs BODY, which maps Y0 in place or jumps to stop, over group
// BX of CX at SI into DI, for every group left.
#define GROUPLOOP(label, BODY) \
label: \
	CMPQ    BX, CX; \
	JGE     stop; \
	VMOVUPD (SI), Y0; \
	BODY; \
	VMOVUPD Y0, (DI); \
	ADDQ    $32, SI; \
	ADDQ    $32, DI; \
	INCQ    BX; \
	JMP     label

// func actGroups(op int, dst, src *float64, groups int) int
TEXT ·actGroups(SB), NOSPLIT, $0-40
	MOVQ op+0(FP), DX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ groups+24(FP), CX
	XORQ BX, BX
	CMPQ DX, $0 // actSigmoid
	JEQ  sigmoid
	CMPQ DX, $1 // actTanh
	JEQ  tanh
	JMP  stop

	GROUPLOOP(sigmoid, SIGMOID)
	GROUPLOOP(tanh, TANH)

stop:
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET

// func x86CpuidFMA() bool
TEXT ·x86CpuidFMA(SB), NOSPLIT, $0-1
	MOVQ $1, AX
	XORQ CX, CX
	CPUID
	MOVQ CX, DX
	SHRQ $12, CX
	SHRQ $28, DX
	ANDQ DX, CX
	ANDQ $1, CX
	MOVB CX, ret+0(FP)
	RET

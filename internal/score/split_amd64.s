#include "textflag.h"
#include "go_asm.h"
#include "log_amd64.h"
#include "lanes_amd64.h"

// The split kernel (DESIGN §29): Kernel.SplitImproves two lanes at a time,
// both sides of both lanes in one vector. Every element performs
// SplitImproves' float64 operations — betaN, fastLog, its side's score —
// and the even elements δ̃ and the margin, in its order, on the same
// operands, with packed IEEE operations and no FMA, so every lane rounds as
// the scalar code does. LOG4 (log_amd64.h, DESIGN §28) scores the total as
// Kernel.LogML does, bit for bit.
//
// The frame: 32-byte rows of the total's N, Sum and SumSq plus one in the
// odd lanes (0 in the even ones) and of its score; the total's βN, αN, c1,
// c2 and c3 and the flag that its score is pending, 8 bytes each; and the
// first pair's SCORE results while LOG4 runs.
#define F_CN    0(SP)
#define F_CSUM  32(SP)
#define F_CSQ   64(SP)
#define F_TOTML 96(SP)
#define F_TB    128(SP)
#define F_TA    136(SP)
#define F_TC1   144(SP)
#define F_TC2   152(SP)
#define F_TC3   160(SP)
#define F_PEND  168(SP)
#define F_S3    192(SP)
#define F_S4    224(SP)
#define F_S5    256(SP)
#define F_S6    288(SP)
#define F_S7    320(SP)

// FASTLOG leaves fastLog(Y8) in Y9: the exponent e = bits>>52 outside
// 959…1086 gives NaN; otherwise, with i the top seven mantissa bits and
// m the other 45 less 2⁴⁴, r = m·inv_i, r2 = r·r,
// q = (r − 0.5·r2) + r2·r·(1/3 − 0.25·r) and the result is
// (e − 1023)·ln 2 + (ln_i + q). The integers e − 1023 and m convert with
// the magic folded into their offsets. Uses Y0–Y4, Y9–Y11, Y14, Y15, AX,
// DX, R12 and R13.
#define FASTLOG \
	VPSRLQ    $52, Y8, Y0; \
	VPCMPGTQ  S_EXPHI, Y0, Y1; \
	VMOVDQU   S_EXPLO, Y2; \
	VPCMPGTQ  Y0, Y2, Y2; \
	VPOR      Y2, Y1, Y1; \
	VPADDQ    S_KMAGIC, Y0, Y0; \
	VSUBPD    S_MAGIC, Y0, Y0; \
	VPSRLQ    $44, Y8, Y2; \
	VPAND     S_TIDX, Y2, Y2; \
	LANES(Y2, X2, X14); \
	PAIRS((R10)(AX*8), (R10)(DX*8), (R10)(R12*8), (R10)(R13*8), X14, Y14, X15, Y15, Y3, Y4); \
	VPAND     S_MLOW, Y8, Y2; \
	VPADDQ    S_MMAGIC, Y2, Y2; \
	VSUBPD    S_MAGIC, Y2, Y2; \
	VMULPD    Y3, Y2, Y2; \
	VMULPD    Y2, Y2, Y3; \
	VMULPD    S_HALF, Y3, Y9; \
	VSUBPD    Y9, Y2, Y9; \
	VMULPD    S_QUARTER, Y2, Y10; \
	VMOVUPD   S_THIRD, Y11; \
	VSUBPD    Y10, Y11, Y10; \
	VMULPD    Y2, Y3, Y3; \
	VMULPD    Y10, Y3, Y3; \
	VADDPD    Y3, Y9, Y9; \
	VADDPD    Y9, Y4, Y9; \
	VMULPD    S_LN2, Y0, Y0; \
	VADDPD    Y9, Y0, Y9; \
	VBLENDVPD Y1, S_NAN, Y9, Y9

// SCORE finishes one side from BETAN's and ENTRY's results:
// Y4 = p = αN·fastLog(βN), Y3 = ((c1 − p) + c2) − c3 and Y6 = the entry's
// magnitude (|c1| + |c2|) + |c3|; αN stays in Y5 and the in-table mask in
// Y7. Uses Y0–Y4, Y6, Y8–Y15, AX, DX, R12 and R13.
#define SCORE \
	FASTLOG; \
	VMULPD  Y9, Y5, Y4; \
	VSUBPD  Y4, Y12, Y3; \
	VADDPD  Y13, Y3, Y3; \
	VSUBPD  Y6, Y3, Y3; \
	VMOVUPD S_ABS, Y15; \
	VANDPD  Y15, Y12, Y12; \
	VANDPD  Y15, Y13, Y13; \
	VADDPD  Y13, Y12, Y12; \
	VANDPD  Y15, Y6, Y6; \
	VADDPD  Y6, Y12, Y6

// SIDEM scores the sides whose N, Sum and SumSq are in Y0, Y1 and Y2,
// each Sum and SumSq in [−2⁵¹, 2⁵¹); SIDEQ any sides. Both leave SCORE's
// results.
#define SIDEM \
	ENTRY; \
	CVTM(Y1); \
	CVTM(Y2); \
	BETAN; \
	SCORE

#define SIDEQ \
	ENTRY; \
	CVTQ(Y1, Y14, X14, Y15); \
	CVTQ(Y2, Y14, X14, Y15); \
	BETAN; \
	SCORE

// DECIDE takes SCORE's results for the sides [L_a, R_a, L_b, R_b] of two
// lanes a and b and leaves the lane masks of Improves and Certified in
// R12 and R13, at bits 0 (lane a) and 2 (lane b). VPERMILPD $5 swaps the
// two sides of each lane, so that the even elements hold
// δ̃ = (sideL + sideR) − totML and
// margin = ε·(αL + αR) + slack·(((magL + |pL|) + magR) + |pR|). A lane is
// certified when both sides are in the table and δ̃ clears the margin
// either way; a NaN fails both comparisons.
#define DECIDE \
	VPERMILPD $5, Y3, Y8; \
	VADDPD    Y8, Y3, Y3; \
	VSUBPD    F_TOTML, Y3, Y3; \
	VPERMILPD $5, Y5, Y8; \
	VADDPD    Y8, Y5, Y5; \
	VMULPD    S_EPS, Y5, Y5; \
	VANDPD    S_ABS, Y4, Y4; \
	VADDPD    Y4, Y6, Y9; \
	VPERMILPD $5, Y6, Y8; \
	VADDPD    Y8, Y9, Y9; \
	VPERMILPD $5, Y4, Y8; \
	VADDPD    Y8, Y9, Y9; \
	VMULPD    S_SLACK, Y9, Y9; \
	VADDPD    Y9, Y5, Y5; \
	VCMPPD    $0x1e, Y5, Y3, Y0; \
	VXORPD    S_SIGN, Y5, Y5; \
	VCMPPD    $0x11, Y5, Y3, Y1; \
	VPERMILPD $5, Y7, Y8; \
	VPAND     Y8, Y7, Y7; \
	VPOR      Y1, Y0, Y1; \
	VPAND     Y7, Y1, Y1; \
	VPAND     Y7, Y0, Y0; \
	VMOVMSKPD Y0, R12; \
	VMOVMSKPD Y1, R13

// func splitsAVX2(lanes *kernelLanes, lt *logTable, tab *kernelEntry, ltab *logTabEntry, dst *Decision, bkt *Stats, idx *int32, n int, tot *Stats) (totML float64, fallbacks int)
TEXT ·splitsAVX2(SB), NOSPLIT, $352-88
	MOVQ lanes+0(FP), BX
	MOVQ tab+16(FP), R9
	MOVQ ltab+24(FP), R10
	MOVQ dst+32(FP), DI
	MOVQ bkt+40(FP), R8
	MOVQ idx+48(FP), SI
	MOVQ n+56(FP), CX
	MOVQ tot+64(FP), R11

	// A lane's right side is tot − left, formed in the odd elements as
	// (left XOR −1) + (tot + 1).
	VPBROADCASTQ 0(R11), Y0
	VPBROADCASTQ 8(R11), Y1
	VPBROADCASTQ 16(R11), Y2
	VMOVDQU      S_ONE, Y3
	VMOVDQU      S_ODD, Y4
	VPADDQ       Y3, Y0, Y0
	VPAND        Y4, Y0, Y0
	VMOVDQU      Y0, F_CN
	VPADDQ       Y3, Y1, Y1
	VPAND        Y4, Y1, Y1
	VMOVDQU      Y1, F_CSUM
	VPADDQ       Y3, Y2, Y2
	VPAND        Y4, Y2, Y2
	VMOVDQU      Y2, F_CSQ

	// The total's βN and its entry, in scalar operations, BETAN's; the
	// caller has checked that tot's count is in the table. Its logarithm
	// waits for the first pair's sides, so that the two dependency chains
	// overlap.
	MOVQ         0(R11), AX
	VCVTSI2SDQ   AX, X0, X0
	VCVTSI2SDQ   8(R11), X1, X1
	VCVTSI2SDQ   16(R11), X2, X2
	VMULSD       S_SCALE, X1, X1
	VMULSD       S_SCALE2, X2, X2
	VDIVSD       X0, X1, X3
	VMULSD       X1, X1, X1
	VDIVSD       X0, X1, X1
	VSUBSD       X1, X2, X2
	VXORPD       X4, X4, X4
	VCMPSD       $1, X4, X2, X4
	VANDNPD      X2, X4, X2
	VSUBSD       S_MU0, X3, X3
	VMULSD       S_LAMBDA0, X0, X1
	VMULSD       X3, X1, X1
	VMULSD       X3, X1, X1
	VADDSD       S_LAMBDA0, X0, X4
	VADDSD       X4, X4, X4
	VDIVSD       X4, X1, X1
	VMULSD       S_HALF, X2, X2
	VADDSD       S_BETA0, X2, X2
	VADDSD       X1, X2, X2
	VMULSD       S_HALF, X0, X0
	VMULSD       S_LOG2PI, X0, X15
	VADDSD       S_ALPHA0, X0, X14
	IMUL3Q       $kernelEntry__size, AX, AX
	VMOVSD       kernelEntry_c1(R9)(AX*1), X12
	VMOVSD       kernelEntry_c2(R9)(AX*1), X13
	VMOVSD       X2, F_TB
	VMOVSD       X14, F_TA
	VMOVSD       X12, F_TC1
	VMOVSD       X13, F_TC2
	VMOVSD       X15, F_TC3
	MOVQ         $1, F_PEND
	XORQ         R11, R11

loop:
	// Two lanes a step, their four sides [L_a, R_a, L_b, R_b] in one
	// vector; a last odd lane runs as a pair with itself.
	CMPQ  CX, $2
	JLT   one
	MOVL  0(SI), AX
	MOVL  4(SI), DX
	JMP   pair

one:
	TESTQ CX, CX
	JEQ   done
	MOVL  0(SI), AX
	MOVL  AX, DX

pair:
	LEAQ        (AX)(AX*2), AX
	LEAQ        (DX)(DX*2), DX
	VMOVDQU     (R8)(AX*8), X0
	VINSERTI128 $1, (R8)(DX*8), Y0, Y0
	VMOVQ       16(R8)(AX*8), X2
	VPINSRQ     $1, 16(R8)(DX*8), X2, X2
	VPERMQ      $0xf5, Y0, Y1
	VPERMQ      $0xa0, Y0, Y0
	VPERMQ      $0x50, Y2, Y2
	VMOVDQU     S_ODD, Y8
	VPXOR       Y8, Y0, Y0
	VPADDQ      F_CN, Y0, Y0
	VPXOR       Y8, Y1, Y1
	VPADDQ      F_CSUM, Y1, Y1
	VPXOR       Y8, Y2, Y2
	VPADDQ      F_CSQ, Y2, Y2
	// The exact conversions if any Sum or SumSq lies outside [−2⁵¹, 2⁵¹).
	VMOVDQU     S_HALFR, Y8
	VPADDQ      Y8, Y1, Y9
	VPADDQ      Y8, Y2, Y10
	VPOR        Y9, Y10, Y10
	VPSRLQ      $52, Y10, Y10
	VPTEST      Y10, Y10
	JNZ         exact
	SIDEM
	JMP         scored

exact:
	SIDEQ

scored:
	// totML = ((c1 − αN·ln βN) + c2) − c3, Kernel.LogML's expression, with
	// LOG4's logarithm, which is math.Log's.
	CMPQ    F_PEND, $0
	JEQ     decided
	MOVQ    $0, F_PEND
	VMOVUPD Y3, F_S3
	VMOVUPD Y4, F_S4
	VMOVUPD Y5, F_S5
	VMOVUPD Y6, F_S6
	VMOVUPD Y7, F_S7
	VBROADCASTSD F_TB, Y0
	MOVQ    lt+8(FP), AX
	LOG4
	VMULSD  F_TA, X1, X1
	VMOVSD  F_TC1, X12
	VSUBSD  X1, X12, X12
	VADDSD  F_TC2, X12, X12
	VSUBSD  F_TC3, X12, X12
	VMOVSD  X12, totML+72(FP)
	VBROADCASTSD X12, Y12
	VMOVUPD Y12, F_TOTML
	VMOVUPD F_S3, Y3
	VMOVUPD F_S4, Y4
	VMOVUPD F_S5, Y5
	VMOVUPD F_S6, Y6
	VMOVUPD F_S7, Y7

decided:
	DECIDE
	MOVWLZX S_SPREAD(BX)(R12*2), R12
	MOVWLZX S_SPREAD(BX)(R13*2), R13
	CMPQ    CX, $2
	JLT     last
	POPCNTL R13, AX
	ADDQ    $2, R11
	SUBQ    AX, R11
	SHLL    $1, R13
	ORL     R13, R12
	MOVW    R12, (DI)
	ADDQ    $8, SI
	ADDQ    $2, DI
	SUBQ    $2, CX
	JMP     loop

last:
	ANDL $1, R13
	INCQ R11
	SUBQ R13, R11
	SHLL $1, R13
	ORL  R13, R12
	MOVB R12, (DI)

done:
	MOVQ R11, fallbacks+80(FP)
	VZEROUPPER
	RET

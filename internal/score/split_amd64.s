#include "textflag.h"
#include "go_asm.h"
#include "lanes_amd64.h"

// The split kernel (DESIGN §29): Kernel.SplitImproves two lanes at a time,
// both sides of both lanes in one vector. Every element performs
// SplitImproves' float64 operations — betaN, fastLog, its side's score —
// and the even elements δ̃ and the margin, in its order, on the same
// operands, with packed IEEE operations and no FMA, so every lane rounds as
// the scalar code does. Each lane reads its own total and that total's
// score, so the lanes of one call may come from different resamples.
//
// The loop is software-pipelined in three stages, so that three pairs'
// long dependency chains overlap: stage A of a pair loads its sides and
// forms βN, αN, c1, c2, c3, the in-table mask and the totals' scores into
// the frame's first slot; stage B1 takes the logarithm and scores the sides
// into the second slot; stage B2 decides and stores. A pass runs B2 of one
// pair, B1 of the next and A of the one after, in that order, so each slot
// is read before it is written again. F_CNT and F_CNTB are the slots' lane
// counts, 2 or 1; F_PRIME says that the pipeline is still filling, and
// F_DONE that the pair in the second slot is the last.
#define F_BETA  0(SP)
#define F_ALPHA 32(SP)
#define F_C1    64(SP)
#define F_C2    96(SP)
#define F_C3    128(SP)
#define F_MASK  160(SP)
#define F_TML   192(SP)
#define F_SIDE  224(SP)
#define F_P     256(SP)
#define F_ALPHB 288(SP)
#define F_MAG   320(SP)
#define F_MASKB 352(SP)
#define F_TMLB  384(SP)
#define F_CNT   416(SP)
#define F_CNTB  424(SP)
#define F_PRIME 432(SP)
#define F_DONE  440(SP)

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

// SCORE finishes one side from FASTLOG's result and the c1, c2, c3 and αN
// of ENTRY and BETAN in Y12, Y13, Y6 and Y5: Y4 = p = αN·fastLog(βN),
// Y3 = ((c1 − p) + c2) − c3 and Y6 = the entry's magnitude
// (|c1| + |c2|) + |c3|; αN stays in Y5. Uses Y3, Y4, Y6, Y12, Y13 and
// Y15.
#define SCORE \
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

// DECIDE takes SCORE's results and the in-table mask in Y7 for the sides
// [L_a, R_a, L_b, R_b] of two lanes a and b and leaves the lane masks of Improves and Certified in
// R12 and R13, at bits 0 (lane a) and 2 (lane b). VPERMILPD $5 swaps the
// two sides of each lane, so that the even elements hold
// δ̃ = (sideL + sideR) − totML and
// margin = ε·(αL + αR) + slack·(((magL + |pL|) + magR) + |pR|). A lane is
// certified when both sides are in the table and δ̃ clears the margin
// either way; a NaN fails both comparisons.
#define DECIDE \
	VPERMILPD $5, Y3, Y8; \
	VADDPD    Y8, Y3, Y3; \
	VSUBPD    F_TMLB, Y3, Y3; \
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

// func splitsAVX2(lanes *kernelLanes, tab *kernelEntry, ltab *logTabEntry, dst *Decision, bkt *Stats, ln *Lane, totML *float64, n int) (fallbacks int)
TEXT ·splitsAVX2(SB), NOSPLIT, $448-72
	MOVQ lanes+0(FP), BX
	MOVQ tab+8(FP), R9
	MOVQ ltab+16(FP), R10
	MOVQ dst+24(FP), DI
	MOVQ bkt+32(FP), R8
	MOVQ ln+40(FP), SI
	MOVQ totML+48(FP), R15
	MOVQ n+56(FP), CX
	XORQ R11, R11
	MOVQ $1, F_PRIME
	MOVQ $0, F_DONE
	JMP  stagea

loop:
	// Stage B2: decide the pair in the second slot and store.
	VMOVUPD F_SIDE, Y3
	VMOVUPD F_P, Y4
	VMOVUPD F_ALPHB, Y5
	VMOVUPD F_MAG, Y6
	VMOVDQU F_MASKB, Y7
	DECIDE
	MOVWLZX S_SPREAD(BX)(R12*2), R12
	MOVWLZX S_SPREAD(BX)(R13*2), R13
	CMPQ    F_CNTB, $2
	JLT     last
	POPCNTL R13, AX
	ADDQ    $2, R11
	SUBQ    AX, R11
	SHLL    $1, R13
	ORL     R13, R12
	MOVW    R12, (DI)
	ADDQ    $2, DI
	CMPQ    F_DONE, $0
	JNE     done

stageb1:
	// Stage B1: score the sides of the pair in the first slot into the
	// second.
	VMOVUPD F_BETA, Y8
	FASTLOG
	VMOVUPD F_ALPHA, Y5
	VMOVUPD F_C1, Y12
	VMOVUPD F_C2, Y13
	VMOVUPD F_C3, Y6
	SCORE
	VMOVUPD Y3, F_SIDE
	VMOVUPD Y4, F_P
	VMOVUPD Y5, F_ALPHB
	VMOVUPD Y6, F_MAG
	VMOVDQU F_MASK, Y7
	VMOVDQU Y7, F_MASKB
	VMOVUPD F_TML, Y10
	VMOVUPD Y10, F_TMLB
	MOVQ    F_CNT, AX
	MOVQ    AX, F_CNTB
	TESTQ   CX, CX
	JG      stagea
	MOVQ    $1, F_DONE
	JMP     loop

stagea:
	// Stage A: the next two lanes, their four sides [L_a, R_a, L_b, R_b]
	// in one vector; a last odd lane runs as a pair with itself. AX and DX
	// index the left blocks, R12 and R13 the totals. CX counts the lanes
	// not yet through stage A.
	CMPQ CX, $2
	JLT  one
	MOVL 0(SI), AX
	MOVL 4(SI), R12
	MOVL 8(SI), DX
	MOVL 12(SI), R13
	MOVQ $2, F_CNT
	JMP  pair

one:
	MOVL 0(SI), AX
	MOVL AX, DX
	MOVL 4(SI), R12
	MOVL R12, R13
	MOVQ $1, F_CNT

pair:
	ADDQ        $16, SI
	SUBQ        $2, CX
	VMOVSD      (R15)(R12*8), X10
	VMOVSD      (R15)(R13*8), X11
	VINSERTF128 $1, X11, Y10, Y10
	VMOVUPD     Y10, F_TML
	LEAQ        (AX)(AX*2), AX
	LEAQ        (DX)(DX*2), DX
	LEAQ        (R12)(R12*2), R12
	LEAQ        (R13)(R13*2), R13
	// [N, Sum] of l_a, l_b and of t_a, t_b; [SumSq] of l_a, t_a, l_b, t_b.
	VMOVDQU     (R8)(AX*8), X0
	VINSERTI128 $1, (R8)(DX*8), Y0, Y0
	VMOVDQU     (R8)(R12*8), X1
	VINSERTI128 $1, (R8)(R13*8), Y1, Y1
	VMOVQ       16(R8)(AX*8), X2
	VPINSRQ     $1, 16(R8)(R12*8), X2, X2
	VMOVQ       16(R8)(DX*8), X3
	VPINSRQ     $1, 16(R8)(R13*8), X3, X3
	VINSERTI128 $1, X3, Y2, Y2
	// Each row [l_a, t_a, l_b, t_b] less itself shifted up one element is
	// [l_a, t_a − l_a, l_b, t_b − l_b]: the right side is tot − left modulo
	// 2⁶⁴, Go's -.
	VPUNPCKHQDQ Y1, Y0, Y3
	VPUNPCKLQDQ Y1, Y0, Y0
	VPSLLDQ     $8, Y0, Y4
	VPSUBQ      Y4, Y0, Y0
	VPSLLDQ     $8, Y3, Y4
	VPSUBQ      Y4, Y3, Y1
	VPSLLDQ     $8, Y2, Y4
	VPSUBQ      Y4, Y2, Y2
	// The exact conversions if any Sum or SumSq lies outside [−2⁵¹, 2⁵¹).
	VMOVDQU     S_HALFR, Y8
	VPADDQ      Y8, Y1, Y9
	VPADDQ      Y8, Y2, Y10
	VPOR        Y9, Y10, Y10
	VPSRLQ      $52, Y10, Y10
	VPTEST      Y10, Y10
	JNZ         exact
	ENTRY
	CVTM(Y1)
	CVTM(Y2)
	JMP         betan

exact:
	ENTRY
	CVTQ(Y1, Y14, X14, Y15)
	CVTQ(Y2, Y14, X14, Y15)

betan:
	BETAN
	VMOVUPD Y8, F_BETA
	VMOVUPD Y5, F_ALPHA
	VMOVUPD Y12, F_C1
	VMOVUPD Y13, F_C2
	VMOVUPD Y6, F_C3
	VMOVDQU Y7, F_MASK
	CMPQ    F_PRIME, $0
	JEQ     loop
	MOVQ    $0, F_PRIME
	JMP     stageb1

last:
	ANDL $1, R13
	INCQ R11
	SUBQ R13, R11
	SHLL $1, R13
	ORL  R13, R12
	MOVB R12, (DI)

done:
	MOVQ R11, fallbacks+64(FP)
	VZEROUPPER
	RET

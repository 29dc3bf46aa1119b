// The lane code of math.Log's amd64 code (DESIGN §28), for batch_amd64.s.
//
// AX points at a logTable: each constant, once per lane, at its field's
// offset from go_asm.h, which the including file includes first.
#define MANT   logTable_mant(AX)
#define HALF   logTable_half(AX)
#define EXP    logTable_exp(AX)
#define BIAS   logTable_bias(AX)
#define MAGIC  logTable_magic(AX)
#define HSQRT2 logTable_hsqrt2(AX)
#define ONE    logTable_one(AX)
#define TWO    logTable_two(AX)
#define L7     logTable_l7(AX)
#define L5     logTable_l5(AX)
#define L3     logTable_l3(AX)
#define L1     logTable_l1(AX)
#define L6     logTable_l6(AX)
#define L4     logTable_l4(AX)
#define L2     logTable_l2(AX)
#define LN2LO  logTable_ln2Lo(AX)
#define LN2HI  logTable_ln2Hi(AX)
#define ABS    logTable_abs(AX)
#define NAN    logTable_nan(AX)
#define NEGINF logTable_negInf(AX)
#define POSINF logTable_posInf(AX)

// LOG4 takes four inputs in Y0 and leaves their logarithms in Y1, using
// Y0–Y11. In log_amd64.s's names, step by step:
//   Y2 = f1 and Y1 = k from the exponent field (math.Frexp), ki converted
//        exactly as 1.5·2^52 + ki − 1.5·2^52, the value CVTSL2SD gives;
//   Y3 = the scalar CMPSD's cmpnlt mask, f1 ≤ √2/2: k −= 1 and f1 ×= 2;
//   Y2 = f := f1 − 1, Y3 = s := f/(2+f), Y4 = s2, Y5 = s4;
//   Y4 = t1 := s2·(L1+s4·(L3+s4·(L5+s4·L7))), Y5 = t2 := s4·(L2+s4·(L4+s4·L6));
//   Y4 = R := t1 + t2, Y7 = hfsq := 0.5·f·f;
//   Y1 = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f);
// then the special cases, blended in reverse order of the scalar branches
// so that the first one wins: Y11 = the bits are below +Inf's (else x),
// Y10 = the sign bit is set (NaN), Y8 = x is ±0 (−Inf).
#define LOG4 \
	VANDPD    MANT, Y0, Y2; \
	VORPD     HALF, Y2, Y2; \
	VPSRLQ    $52, Y0, Y1; \
	VPAND     EXP, Y1, Y1; \
	VPSUBQ    BIAS, Y1, Y1; \
	VPADDQ    MAGIC, Y1, Y1; \
	VSUBPD    MAGIC, Y1, Y1; \
	VCMPPD    $2, HSQRT2, Y2, Y3; \
	VANDPD    ONE, Y3, Y3; \
	VSUBPD    Y3, Y1, Y1; \
	VADDPD    ONE, Y3, Y3; \
	VMULPD    Y3, Y2, Y2; \
	VSUBPD    ONE, Y2, Y2; \
	VADDPD    TWO, Y2, Y4; \
	VDIVPD    Y4, Y2, Y3; \
	VMULPD    Y3, Y3, Y4; \
	VMULPD    Y4, Y4, Y5; \
	VMULPD    L7, Y5, Y6; \
	VADDPD    L5, Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    L3, Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    L1, Y6, Y6; \
	VMULPD    Y6, Y4, Y4; \
	VMULPD    L6, Y5, Y6; \
	VADDPD    L4, Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    L2, Y6, Y6; \
	VMULPD    Y6, Y5, Y5; \
	VADDPD    Y5, Y4, Y4; \
	VMULPD    HALF, Y2, Y7; \
	VMULPD    Y2, Y7, Y7; \
	VADDPD    Y7, Y4, Y4; \
	VMULPD    Y4, Y3, Y3; \
	VMULPD    LN2LO, Y1, Y4; \
	VADDPD    Y4, Y3, Y3; \
	VSUBPD    Y3, Y7, Y7; \
	VSUBPD    Y2, Y7, Y7; \
	VMULPD    LN2HI, Y1, Y1; \
	VSUBPD    Y7, Y1, Y1; \
	VPAND     ABS, Y0, Y8; \
	VPXOR     Y9, Y9, Y9; \
	VPCMPEQQ  Y9, Y8, Y8; \
	VPCMPGTQ  Y0, Y9, Y10; \
	VMOVDQU   POSINF, Y11; \
	VPCMPGTQ  Y0, Y11, Y11; \
	VBLENDVPD Y11, Y1, Y0, Y1; \
	VBLENDVPD Y10, NAN, Y1, Y1; \
	VBLENDVPD Y8, NEGINF, Y1, Y1

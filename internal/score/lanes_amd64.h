// The lane code shared by the split kernel (split_amd64.s, DESIGN §29) and
// the fused block scoring (batch_amd64.s, DESIGN §30): the lane constants,
// the exact int64 → float64 conversions, a table entry's c1 and c2, and βN
// with Kernel.betaN's operations. The including file includes go_asm.h
// first.
//
// BX points at a kernelLanes: each constant (once per lane) and the spread
// table at their fields' offsets from go_asm.h.
#define S_MAGIC   kernelLanes_magic(BX)
#define S_TWO52   kernelLanes_two52(BX)
#define S_TWO32   kernelLanes_two32(BX)
#define S_LO32    kernelLanes_lo32(BX)
#define S_HIDW    kernelLanes_hidw(BX)
#define S_NMAX    kernelLanes_nmax(BX)
#define S_SCALE   kernelLanes_scale(BX)
#define S_SCALE2  kernelLanes_scale2(BX)
#define S_MU0     kernelLanes_mu0(BX)
#define S_LAMBDA0 kernelLanes_lambda0(BX)
#define S_ALPHA0  kernelLanes_alpha0(BX)
#define S_BETA0   kernelLanes_beta0(BX)
#define S_LOG2PI  kernelLanes_log2Pi(BX)
#define S_HALF    kernelLanes_half(BX)
#define S_ABS     kernelLanes_abs(BX)
#define S_EXPLO   kernelLanes_expLo(BX)
#define S_EXPHI   kernelLanes_expHi(BX)
#define S_KMAGIC  kernelLanes_kMagic(BX)
#define S_TIDX    kernelLanes_tIdx(BX)
#define S_MLOW    kernelLanes_mLow(BX)
#define S_MMAGIC  kernelLanes_mMagic(BX)
#define S_QUARTER kernelLanes_quarter(BX)
#define S_THIRD   kernelLanes_third(BX)
#define S_LN2     kernelLanes_ln2(BX)
#define S_NAN     kernelLanes_nan(BX)
#define S_EPS     kernelLanes_eps(BX)
#define S_SLACK   kernelLanes_slack(BX)
#define S_SIGN    kernelLanes_sign(BX)
#define S_HALFR   kernelLanes_halfR(BX)
#define S_ODD     kernelLanes_odd(BX)
#define S_ONE     kernelLanes_one(BX)
#define S_SPREAD  kernelLanes_spread

// CVTQ converts the four int64 lanes of y to float64, rounding once as
// CVTSQ2SD does: the high words, signed, convert exactly (VCVTDQ2PD) and
// scale by 2³², the low words, unsigned, convert exactly as
// (2⁵² | lo) − 2⁵², and their sum is the one rounding. Uses a and b.
#define CVTQ(y, a, xa, b) \
	VMOVDQU   S_HIDW, a; \
	VPERMD    y, a, a; \
	VCVTDQ2PD xa, a; \
	VMULPD    S_TWO32, a, a; \
	VPAND     S_LO32, y, b; \
	VPOR      S_TWO52, b, b; \
	VSUBPD    S_TWO52, b, b; \
	VADDPD    b, a, y

// CVTM converts the four int64 lanes of y, each in [−2⁵¹, 2⁵¹), to
// float64 exactly as (1.5·2⁵² + y) − 1.5·2⁵².
#define CVTM(y) \
	VPADDQ S_MAGIC, y, y; \
	VSUBPD S_MAGIC, y, y

// LANES moves the four qwords of y (x its low half) into AX, DX, R12 and
// R13, using xt.
#define LANES(y, x, xt) \
	VMOVQ        x, AX; \
	VPEXTRQ      $1, x, DX; \
	VEXTRACTI128 $1, y, xt; \
	VMOVQ        xt, R12; \
	VPEXTRQ      $1, xt, R13

// PAIRS loads the 16 bytes at each of m0…m3 — two adjacent float64 — and
// leaves the first of each in lo and the second in hi, lane by lane. Uses
// y0 and y1 (x0, x1 their low halves).
#define PAIRS(m0, m1, m2, m3, x0, y0, x1, y1, lo, hi) \
	VMOVUPD     m0, x0; \
	VMOVUPD     m1, x1; \
	VINSERTF128 $1, m2, y0, y0; \
	VINSERTF128 $1, m3, y1, y1; \
	VUNPCKLPD   y1, y0, lo; \
	VUNPCKHPD   y1, y0, hi

// ENTRY takes a block count in Y0 and leaves in Y7 the lanes with
// 1 ≤ N < len(tab), in Y12 and Y13 the c1 and c2 of their table entries
// (kernelEntry's layout from go_asm.h; c2 is the word after c1, which
// TestKernelEntryLayout pins, so one 16-byte load reads both; the other
// lanes read entry 0) and in Y0 the count as a float64. Uses Y14, Y15,
// AX, DX, R12 and R13.
#define ENTRY \
	VPXOR    Y15, Y15, Y15; \
	VPCMPGTQ Y15, Y0, Y7; \
	VMOVDQU  S_NMAX, Y14; \
	VPCMPGTQ Y0, Y14, Y14; \
	VPAND    Y14, Y7, Y7; \
	VPAND    Y7, Y0, Y0; \
	LANES(Y0, X0, X14); \
	IMUL3Q   $kernelEntry__size, AX, AX; \
	IMUL3Q   $kernelEntry__size, DX, DX; \
	IMUL3Q   $kernelEntry__size, R12, R12; \
	IMUL3Q   $kernelEntry__size, R13, R13; \
	PAIRS(kernelEntry_c1(R9)(AX*1), kernelEntry_c1(R9)(DX*1), kernelEntry_c1(R9)(R12*1), kernelEntry_c1(R9)(R13*1), X14, Y14, X15, Y15, Y12, Y13); \
	CVTM(Y0)

// BETAN takes a block's n (a float64) in Y0 and its Sum and SumSq, as
// float64, in Y1 and Y2, and leaves, in the operations of Kernel.betaN and
// NewKernel: Y5 = αN = α₀ + n/2, Y6 = c3 = n/2·ln 2π and
// Y8 = βN = (β₀ + 0.5·ss) + λ₀n·dm·dm/(2·(λ₀+n)), with sum and sumsq
// scaled by 2⁻¹⁶ and 2⁻³², mean = sum/n, ss = sumsq − sum·sum/n (0 where
// it is negative) and dm = mean − μ₀. Uses Y0–Y6, Y8 and Y14.
#define BETAN \
	VMULPD  S_SCALE, Y1, Y1; \
	VMULPD  S_SCALE2, Y2, Y2; \
	VDIVPD  Y0, Y1, Y3; \
	VMULPD  Y1, Y1, Y1; \
	VDIVPD  Y0, Y1, Y1; \
	VSUBPD  Y1, Y2, Y2; \
	VXORPD  Y14, Y14, Y14; \
	VCMPPD  $1, Y14, Y2, Y14; \
	VANDNPD Y2, Y14, Y2; \
	VSUBPD  S_MU0, Y3, Y3; \
	VMULPD  S_LAMBDA0, Y0, Y1; \
	VMULPD  Y3, Y1, Y1; \
	VMULPD  Y3, Y1, Y1; \
	VADDPD  S_LAMBDA0, Y0, Y4; \
	VADDPD  Y4, Y4, Y4; \
	VDIVPD  Y4, Y1, Y1; \
	VMULPD  S_HALF, Y2, Y2; \
	VADDPD  S_BETA0, Y2, Y2; \
	VADDPD  Y1, Y2, Y8; \
	VMULPD  S_HALF, Y0, Y0; \
	VMULPD  S_LOG2PI, Y0, Y6; \
	VADDPD  S_ALPHA0, Y0, Y5


// The lane code of exp (exp.go), the FMA branch of math/exp_amd64.s, for
// the weight kernel (weights_amd64.s, DESIGN §31).
//
// R8 points at an expTable: each constant, once per lane, at its field's
// offset from go_asm.h.
#define E_LOG2E expTable_log2E(R8)
#define E_LN2HI expTable_ln2Hi(R8)
#define E_LN2LO expTable_ln2Lo(R8)
#define E_SIXTH expTable_sixteenth(R8)
#define E_C8    expTable_c8(R8)
#define E_C7    expTable_c7(R8)
#define E_C6    expTable_c6(R8)
#define E_C5    expTable_c5(R8)
#define E_C4    expTable_c4(R8)
#define E_C3    expTable_c3(R8)
#define E_HALF  expTable_half(R8)
#define E_ONE   expTable_one(R8)
#define E_TWO   expTable_two(R8)
#define E_MAGIC expTable_magic(R8)
#define E_BIAS  expTable_bias(R8)

// EXP4 takes four inputs in x, each in [−708, 708], and leaves e^x in u,
// using k and p. In exp's names, step by step:
//   k = x·log₂e rounded to even (VROUNDPD, as CVTSD2SL rounds);
//   u = r := (x − k·ln2Hi − k·ln2Lo)/16, the subtractions fused;
//   p = the Horner polynomial from c8 down to 1, fused;
//   u = r·p, then three times u·(u+2), then u·(u+2)+1 fused;
//   k = 2^k: 1.5·2⁵² + k holds k in its low bits, and (those + 1023) ≪ 52
//       is the exponent field; u = u·2^k.
#define EXP4(x, k, u, p) \
	VMULPD       E_LOG2E, x, k; \
	VROUNDPD     $0, k, k; \
	VMOVAPD      x, u; \
	VFNMADD231PD E_LN2HI, k, u; \
	VFNMADD231PD E_LN2LO, k, u; \
	VMULPD       E_SIXTH, u, u; \
	VMOVUPD      E_C8, p; \
	VFMADD213PD  E_C7, u, p; \
	VFMADD213PD  E_C6, u, p; \
	VFMADD213PD  E_C5, u, p; \
	VFMADD213PD  E_C4, u, p; \
	VFMADD213PD  E_C3, u, p; \
	VFMADD213PD  E_HALF, u, p; \
	VFMADD213PD  E_ONE, u, p; \
	VMULPD       p, u, u; \
	VADDPD       E_TWO, u, p; \
	VMULPD       p, u, u; \
	VADDPD       E_TWO, u, p; \
	VMULPD       p, u, u; \
	VADDPD       E_TWO, u, p; \
	VMULPD       p, u, u; \
	VADDPD       E_TWO, u, p; \
	VFMADD213PD  E_ONE, p, u; \
	VADDPD       E_MAGIC, k, k; \
	VPADDQ       E_BIAS, k, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, u, u

#include "textflag.h"
#include "go_asm.h"
#include "lanes_amd64.h"

// The weight step (DESIGN §31): QuantizeWeightsInto's portable loop four
// scores a vector, bit for bit. The first pass takes the maximum over the
// non-NaN scores; the second forms d = s − max, keeps the lanes with
// d ≥ zeroWeightBelow (an ordered compare, so NaN and −Inf lanes drop),
// takes e^d with EXP4, round(e^d·2³²) to even, the clamp to 2³², and
// stores the integer; lanes whose score is +Inf store MaxWeight, and every
// other lane 0. A lane below zeroWeightBelow goes through EXP4 like the
// others and is masked to 0 after it, as the portable loop stores 0
// without taking the exponential: skipping EXP4 for a group whose lanes
// all fall below would pay a branch on every group for groups that almost
// never occur (DESIGN §31). Both passes load and store through a lane mask,
// all ones but for the last n mod 4 scores.

// lanemask<> is four all-ones qwords, then four zero ones: the four qwords
// from byte 32 − 8·r enable the first r lanes of a partial group.
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $-1
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// MAXOF folds the four scores in s into the running maximum m, a NaN lane
// as −Inf. Uses t.
#define MAXOF(s, t, m) \
	VCMPPD    $3, s, s, t; \
	VBLENDVPD t, expTable_negInf(R8), s, s; \
	VMAXPD    s, m, m

// WEIGHT4 takes four scores in s and the maximum in Y0 and leaves their
// weights in u, using d, keep, k and p.
#define WEIGHT4(s, d, keep, k, u, p) \
	VSUBPD     Y0, s, d; \
	VCMPPD     $0x1d, expTable_floor(R8), d, keep; \
	EXP4(d, k, u, p); \
	VMULPD     expTable_two32(R8), u, u; \
	VROUNDPD   $0, u, u; \
	VMINPD     expTable_two32(R8), u, u; \
	VADDPD     expTable_two52(R8), u, u; \
	VPSUBQ     expTable_two52(R8), u, u; \
	VANDPD     keep, u, u; \
	VCMPPD     $0, expTable_posInf(R8), s, p; \
	VBLENDVPD  p, expTable_maxWeight(R8), u, u

// func weightsAVX2(c *expTable, ws *uint64, s *float64, n int)
TEXT ·weightsAVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), R8
	MOVQ ws+8(FP), DI
	MOVQ s+16(FP), SI
	MOVQ n+24(FP), CX
	// Y15 is the mask of the last group: n mod 4 lanes, or none.
	MOVQ    CX, DX
	ANDQ    $3, DX
	MOVQ    $4, BX
	SUBQ    DX, BX
	LEAQ    lanemask<>(SB), AX
	VMOVDQU (AX)(BX*8), Y15

	// The maximum: masked-off lanes read −Inf, NaN lanes −Inf.
	VMOVUPD  expTable_negInf(R8), Y0
	VPCMPEQQ Y14, Y14, Y14
	MOVQ     SI, R10
	MOVQ     CX, R9

maxmask:
	CMPQ    R9, $4
	JGE     maxload
	VMOVDQU Y15, Y14

maxload:
	VMASKMOVPD (R10), Y14, Y1
	VANDNPD    expTable_negInf(R8), Y14, Y2
	VORPD      Y2, Y1, Y1
	MAXOF(Y1, Y2, Y0)
	ADDQ       $32, R10
	SUBQ       $4, R9
	JG         maxmask

	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXPD       X1, X0, X0
	VBROADCASTSD X0, Y0

	// The weights.
	VPCMPEQQ Y14, Y14, Y14

wmask:
	CMPQ    CX, $4
	JGE     wload
	VMOVDQU Y15, Y14

wload:
	VMASKMOVPD (SI), Y14, Y1
	WEIGHT4(Y1, Y2, Y3, Y4, Y5, Y6)
	VPMASKMOVQ Y5, Y14, (DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $4, CX
	JG         wmask

	VZEROUPPER
	RET

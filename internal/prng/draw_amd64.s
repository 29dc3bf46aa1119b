#include "textflag.h"
#include "go_asm.h"

// The vector draw kernel (DESIGN §27). Registers:
//   Y0–Y5   a block's 24 raw outputs, in kernelTable.coef's lane order
//   Y6–Y8   the state words s0, s1, s2, broadcast to all four lanes
//   Y9      2^32 − 1      Y10  2^31 − 1
//   Y11     210 ≡ 2^32    Y12  105 ≡ 2^31 (mod Modulus)
//   Y13     Modulus
//   Y14–Y15 scratch
// AX points at the kernelTable, whose field offsets go_asm.h gives.

// DOT computes four lanes of raw outputs into R: three 32×32→64 products
// summed (< 3·2^62), folded at bit 32 by 2^32 ≡ 210 (< 2^40), folded at
// bit 31 by 2^31 ≡ 105 (< 2·Modulus), and one conditional subtract, done
// as an unsigned 32-bit minimum of x and x − Modulus (the latter wraps
// above x exactly when x < Modulus; both fit in the low half of the lane).
#define DOT(c0, c1, c2, R) \
	VPMULUDQ (kernelTable_coef+c0)(AX), Y6, R;   \
	VPMULUDQ (kernelTable_coef+c1)(AX), Y7, Y14; \
	VPADDQ   Y14, R, R;                          \
	VPMULUDQ (kernelTable_coef+c2)(AX), Y8, Y15; \
	VPADDQ   Y15, R, R;                          \
	VPSRLQ   $32, R, Y14;                        \
	VPAND    Y9, R, R;                           \
	VPMULUDQ Y11, Y14, Y14;                      \
	VPADDQ   Y14, R, R;                          \
	VPSRLQ   $31, R, Y15;                        \
	VPAND    Y10, R, R;                          \
	VPMULUDQ Y12, Y15, Y15;                      \
	VPADDQ   Y15, R, R;                          \
	VPSUBD   Y13, R, Y14;                        \
	VPMINUD  Y14, R, R

// BLOCK computes the 24 raw outputs of the state in Y6–Y8, the three that
// become the next state first.
#define BLOCK \
	DOT(288, 320, 352, Y3); \
	DOT(384, 416, 448, Y4); \
	DOT(480, 512, 544, Y5); \
	DOT(0, 32, 64, Y0);     \
	DOT(96, 128, 160, Y1);  \
	DOT(192, 224, 256, Y2)

// PICKS leaves four Uint64 outputs a<<33 | b<<2 | c>>29 in Y14.
#define PICKS(A, B, C) \
	VPSLLQ $33, A, Y14;   \
	VPSLLQ $2, B, Y15;    \
	VPOR   Y15, Y14, Y14; \
	VPSRLQ $29, C, Y15;   \
	VPOR   Y15, Y14, Y14

// func drawAVX2(t *kernelTable, s *[3]uint64, dst *int, n int)
TEXT ·drawAVX2(SB), NOSPLIT, $192-32
	MOVQ t+0(FP), AX
	MOVQ s+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), CX

	VPBROADCASTQ 0(SI), Y6
	VPBROADCASTQ 8(SI), Y7
	VPBROADCASTQ 16(SI), Y8
	VPBROADCASTQ kernelTable_fold(AX), Y9
	VPBROADCASTQ (kernelTable_fold+8)(AX), Y10
	VPBROADCASTQ (kernelTable_fold+16)(AX), Y11
	VPBROADCASTQ (kernelTable_fold+24)(AX), Y12
	VPBROADCASTQ (kernelTable_fold+32)(AX), Y13

	SUBQ $8, CX
	JLT  tail

loop:
	BLOCK

	// The next state is raw outputs 24, 23, 22: lane 3 of Y5, Y4, Y3.
	VPERMQ $0xff, Y5, Y6
	VPERMQ $0xff, Y4, Y7
	VPERMQ $0xff, Y3, Y8

	PICKS(Y0, Y1, Y2)
	VMOVDQU Y14, 0(DI)
	PICKS(Y3, Y4, Y5)
	VMOVDQU Y14, 32(DI)
	ADDQ    $64, DI
	SUBQ    $8, CX
	JGE     loop

tail:
	ADDQ $8, CX // r, the picks of a partial last block
	JZ   whole
	BLOCK

	// Store picks 0 … r−1 through the lane masks.
	MOVQ       $8, DX
	SUBQ       CX, DX
	VMOVDQU    kernelTable_tailMask(AX)(DX*8), Y9
	VMOVDQU    (kernelTable_tailMask+32)(AX)(DX*8), Y10
	PICKS(Y0, Y1, Y2)
	VPMASKMOVQ Y14, Y9, 0(DI)
	PICKS(Y3, Y4, Y5)
	VPMASKMOVQ Y14, Y10, 32(DI)

	// The state after pick j = r−1 is its raw outputs (c, b, a), at byte
	// 96·(j/4) + 8·(j%4) of the rows (a, b, c) spilled to the frame.
	VMOVDQU Y0, 0(SP)
	VMOVDQU Y1, 32(SP)
	VMOVDQU Y2, 64(SP)
	VMOVDQU Y3, 96(SP)
	VMOVDQU Y4, 128(SP)
	VMOVDQU Y5, 160(SP)
	DECQ    CX
	MOVQ    CX, DX
	SHRQ    $2, DX
	LEAQ    (DX)(DX*2), DX
	SHLQ    $5, DX
	ANDQ    $3, CX
	LEAQ    (DX)(CX*8), DX
	MOVQ    64(SP)(DX*1), R8
	MOVQ    R8, 0(SI)
	MOVQ    32(SP)(DX*1), R8
	MOVQ    R8, 8(SI)
	MOVQ    0(SP)(DX*1), R8
	MOVQ    R8, 16(SI)
	VZEROUPPER
	RET

whole:
	VMOVQ X6, 0(SI)
	VMOVQ X7, 8(SI)
	VMOVQ X8, 16(SI)
	VZEROUPPER
	RET

#include "textflag.h"
#include "go_asm.h"
#include "log_amd64.h"
#include "lanes_amd64.h"

// The fused block scoring (DESIGN §30): Kernel.LogML four blocks at a time,
// one block per lane. Every lane performs LogML's float64 operations on the
// same operands, with packed IEEE operations and no FMA: the conversions of
// N, Sum and SumSq as CVTSQ2SD rounds them (CVTM within ±2⁵¹, CVTQ
// otherwise), βN with Kernel.betaN's operations (BETAN), math.Log's amd64
// code (LOG4), and the suffix ((c1 − αN·ln βN) + c2) − c3. Lanes outside
// 1 ≤ N < len(tab) store 0; the result counts those with N ≠ 0, which the
// caller scores with Prior.LogML.

// The loop is software-pipelined in two stages, so that two groups' long
// dependency chains overlap: stage A of a group loads and converts its
// blocks and forms βN, αN, c1, c2, c3 and the in-table mask into one of
// two frame slots; stage B of the group before takes the logarithm from the
// other slot, folds the suffix and stores. A slot is 192 bytes: βN, αN,
// c1, c2, c3 and the mask, 32 bytes each.
#define F_PEND 384(SP)

// STAGEB scores the group whose stage A filled the slot at R8 into (DI).
#define STAGEB \
	VMOVUPD 0(R8), Y0; \
	MOVQ    lt+8(FP), AX; \
	LOG4; \
	VMULPD  32(R8), Y1, Y1; \
	VMOVUPD 64(R8), Y2; \
	VSUBPD  Y1, Y2, Y1; \
	VADDPD  96(R8), Y1, Y1; \
	VSUBPD  128(R8), Y1, Y1; \
	VANDPD  160(R8), Y1, Y1; \
	VMOVUPD Y1, (DI)

// func logmlAVX2(lanes *kernelLanes, lt *logTable, tab *kernelEntry, dst *float64, stats *Stats, n int) (fallbacks int)
TEXT ·logmlAVX2(SB), NOSPLIT, $392-56
	MOVQ lanes+0(FP), BX
	MOVQ tab+16(FP), R9
	MOVQ dst+24(FP), DI
	MOVQ stats+32(FP), SI
	MOVQ n+40(FP), CX
	XORQ R11, R11
	LEAQ 0(SP), R8
	LEAQ 192(SP), R10
	MOVQ $0, F_PEND

loop:
	// Stage A. Four Stats, 96 bytes, as A = [N0 S0 Q0 N1],
	// B = [S1 Q1 N2 S2] and C = [Q2 N3 S3 Q3]; two blends and a
	// permutation gather each field.
	VMOVDQU  0(SI), Y3
	VMOVDQU  32(SI), Y4
	VMOVDQU  64(SI), Y5
	VPBLENDD $0x0c, Y5, Y3, Y0
	VPBLENDD $0x30, Y4, Y0, Y0
	VPERMQ   $0x6c, Y0, Y0
	VPBLENDD $0x0c, Y3, Y4, Y1
	VPBLENDD $0x30, Y5, Y1, Y1
	VPERMQ   $0xb1, Y1, Y1
	VPBLENDD $0x0c, Y4, Y5, Y2
	VPBLENDD $0x30, Y3, Y2, Y2
	VPERMQ   $0xc6, Y2, Y2

	// Y8 = the empty lanes; after ENTRY, the lanes neither empty nor in
	// the table are the fallbacks.
	VPXOR     Y8, Y8, Y8
	VPCMPEQQ  Y8, Y0, Y8
	ENTRY
	VPOR      Y7, Y8, Y8
	VMOVMSKPD Y8, AX
	POPCNTL   AX, AX
	ADDQ      $4, R11
	SUBQ      AX, R11

	// The exact conversions if any Sum or SumSq lies outside [−2⁵¹, 2⁵¹).
	VMOVDQU S_HALFR, Y8
	VPADDQ  Y8, Y1, Y9
	VPADDQ  Y8, Y2, Y10
	VPOR    Y9, Y10, Y10
	VPSRLQ  $52, Y10, Y10
	VPTEST  Y10, Y10
	JNZ     exact
	CVTM(Y1)
	CVTM(Y2)
	JMP     converted

exact:
	CVTQ(Y1, Y14, X14, Y15)
	CVTQ(Y2, Y14, X14, Y15)

converted:
	BETAN
	VMOVUPD Y8, 0(R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y12, 64(R10)
	VMOVUPD Y13, 96(R10)
	VMOVUPD Y6, 128(R10)
	VMOVDQU Y7, 160(R10)
	ADDQ    $96, SI
	SUBQ    $4, CX

	// Stage B of the group before, if there is one.
	CMPQ F_PEND, $0
	JEQ  next
	STAGEB
	ADDQ $32, DI

next:
	MOVQ  $1, F_PEND
	XCHGQ R8, R10
	TESTQ CX, CX
	JNZ   loop

	STAGEB
	MOVQ R11, fallbacks+48(FP)
	VZEROUPPER
	RET

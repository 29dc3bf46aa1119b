#include "textflag.h"
#include "go_asm.h"

// The attach-var gather (DESIGN §30): for every candidate variable cluster,
// the statistics of each of its blocks with one row's cells added. A
// candidate's perm lists its observations cluster by cluster, and ends[i]
// is where cluster i's run ends. The kernel gathers the row along perm
// eight cells at a time (VPGATHERDD), writes the running sums of the cells
// and of their squares, and takes each run's count, sum and sum of squares
// as the differences of the running sums at its two ends, added to the
// obs cluster's stored statistics. Integer sums are exact and associative, so
// every run's statistics are the portable loop's: the squares are 64-bit
// products of 32-bit cells (VPMULDQ) summed mod 2⁶⁴ as the loop sums them,
// and the cell sums run mod 2³², whose differences are exact while a run's
// sum fits an int32, that is for m ≤ maxKernelObs.

// lanemask<> is eight all-ones dwords, then eight zero ones: the eight
// dwords from byte 32 − 4·r enable the first r lanes of a partial group.
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $-1
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// PREFIX takes eight gathered cells in Y2 and writes their running sums
// (int32, eight from R10) and the running sums of their squares (int64,
// eight from R11), continuing from the totals broadcast in Y14 and Y15,
// which it advances. Uses Y2–Y10.
//   sums: a prefix within each 128-bit half (shift by one and two dwords),
//   the low half's total added to the high half, then the carry;
//   squares: VPMULDQ squares the even cells and, shifted down, the odd
//   ones; pairs (c₂ₖ² + c₂ₖ₊₁²) take a prefix the same way, which gives the
//   running sums after each odd cell, and less the odd square, after each
//   even one; the two interleave into cell order.
#define PREFIX \
	VPSLLDQ     $4, Y2, Y3; \
	VPADDD      Y3, Y2, Y3; \
	VPSLLDQ     $8, Y3, Y4; \
	VPADDD      Y4, Y3, Y3; \
	VPSHUFD     $0xff, Y3, Y4; \
	VPERM2I128  $0x08, Y4, Y4, Y4; \
	VPADDD      Y4, Y3, Y3; \
	VPADDD      Y14, Y3, Y3; \
	VMOVDQU     Y3, (R10); \
	VPSHUFD     $0xff, Y3, Y4; \
	VPERM2I128  $0x11, Y4, Y4, Y14; \
	VPMULDQ     Y2, Y2, Y4; \
	VPSRLQ      $32, Y2, Y5; \
	VPMULDQ     Y5, Y5, Y5; \
	VPADDQ      Y5, Y4, Y4; \
	VPSLLDQ     $8, Y4, Y6; \
	VPADDQ      Y6, Y4, Y4; \
	VPUNPCKHQDQ Y4, Y4, Y6; \
	VPERM2I128  $0x08, Y6, Y6, Y6; \
	VPADDQ      Y6, Y4, Y4; \
	VPADDQ      Y15, Y4, Y4; \
	VPSUBQ      Y5, Y4, Y6; \
	VPERMQ      $0xff, Y4, Y15; \
	VPUNPCKLQDQ Y4, Y6, Y7; \
	VPUNPCKHQDQ Y4, Y6, Y8; \
	VPERM2I128  $0x20, Y8, Y7, Y9; \
	VPERM2I128  $0x31, Y8, Y7, Y10; \
	VMOVDQU     Y9, (R11); \
	VMOVDQU     Y10, 32(R11)

// The frame holds the candidate's ends, run count and obs clusters while
// the cells run.
#define F_ENDS     0(SP)
#define F_RUNS     8(SP)
#define F_CLUSTERS 16(SP)

// func gatherAVX2(row *int32, vcs **ObsClusters, nc int, pre *int32, preSq *int64, dst *score.Stats)
TEXT ·gatherAVX2(SB), NOSPLIT, $24-48
	MOVQ vcs+8(FP), R12
	MOVQ pre+24(FP), R8
	MOVQ preSq+32(FP), R9
	MOVQ dst+40(FP), DI

cand:
	// The candidate's ObsClusters, and from it the slices the kernel
	// reads: a slice header is the pointer, then the length.
	MOVQ (R12), AX
	MOVQ ObsClusters_ends(AX), DX
	MOVQ DX, F_ENDS
	MOVQ (ObsClusters_ends+8)(AX), DX
	MOVQ DX, F_RUNS
	MOVQ ObsClusters_Clusters(AX), DX
	MOVQ DX, F_CLUSTERS
	MOVQ ObsClusters_perm(AX), DX
	MOVQ (ObsClusters_perm+8)(AX), CX
	MOVQ row+0(FP), SI
	// Entry 0 of both running sums is 0; the kernel writes from entry 1.
	LEAQ  4(R8), R10
	LEAQ  8(R9), R11
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15

cells:
	CMPQ       CX, $8
	JLT        tail
	VMOVDQU    (DX), Y0
	VPCMPEQD   Y1, Y1, Y1
	VPXOR      Y2, Y2, Y2
	VPGATHERDD Y1, (SI)(Y0*4), Y2
	PREFIX
	ADDQ       $32, DX
	ADDQ       $32, R10
	ADDQ       $64, R11
	SUBQ       $8, CX
	JMP        cells

tail:
	// The last 1–7 cells run as one group whose other lanes gather
	// nothing and add 0.
	TESTQ      CX, CX
	JEQ        runs
	LEAQ       lanemask<>(SB), AX
	MOVQ       $8, BX
	SUBQ       CX, BX
	VMOVDQU    (AX)(BX*4), Y1
	VPMASKMOVD (DX), Y1, Y0
	VPXOR      Y2, Y2, Y2
	VPGATHERDD Y1, (SI)(Y0*4), Y2
	PREFIX

runs:
	// Run i is [ends[i−1], ends[i]), ends[−1] = 0: its block is the obs
	// cluster's stored statistics plus the run's count and the differences
	// of the running sums at its ends.
	MOVQ F_ENDS, DX
	MOVQ F_RUNS, CX
	MOVQ F_CLUSTERS, SI
	XORQ AX, AX

run:
	MOVLQSX (DX), BX
	MOVQ    (SI), R11
	MOVQ    BX, R10
	SUBQ    AX, R10
	ADDQ    ObsCluster_Stats(R11), R10
	MOVQ    R10, 0(DI)
	MOVL    (R8)(BX*4), R10
	SUBL    (R8)(AX*4), R10
	MOVLQSX R10, R10
	ADDQ    (ObsCluster_Stats+8)(R11), R10
	MOVQ    R10, 8(DI)
	MOVQ    (R9)(BX*8), R10
	SUBQ    (R9)(AX*8), R10
	ADDQ    (ObsCluster_Stats+16)(R11), R10
	MOVQ    R10, 16(DI)
	MOVQ    BX, AX
	ADDQ    $4, DX
	ADDQ    $8, SI
	ADDQ    $24, DI
	DECQ    CX
	JNZ     run

	ADDQ $8, R12
	DECQ nc+16(FP)
	JNZ  cand

	VZEROUPPER
	RET

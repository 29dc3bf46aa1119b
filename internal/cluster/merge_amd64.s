#include "textflag.h"
#include "go_asm.h"

// The merge-var gather (DESIGN §31): for every candidate variable cluster,
// the statistics of each of its blocks with the source cluster's cells
// added. cols[j] holds the source's sums over observation j — N, Sum and
// SumSq at bytes 0, 8 and 16 of 24 — and every cols[j].N is the source's
// variable count. For each candidate the kernel walks its perm once and
// writes the running sums of (Sum, SumSq), a 16-byte pair added with one
// VPADDQ a cell; then each run's block is the obs cluster's stored
// statistics plus the run's length times the source's variable count and
// the differences of the running sums at the run's two ends. The sums run
// mod 2⁶⁴, as the portable loop's do, so every block is the portable
// loop's.

// func mergeAVX2(cols *score.Stats, vcs **ObsClusters, nc int, nsrc int64, pre *int64, dst *score.Stats)
TEXT ·mergeAVX2(SB), NOSPLIT, $0-48
	MOVQ cols+0(FP), SI
	MOVQ vcs+8(FP), R12
	MOVQ nsrc+24(FP), R9
	MOVQ pre+32(FP), R14
	MOVQ dst+40(FP), DI

cand:
	// The candidate's ObsClusters, and from it the slices the kernel
	// reads: a slice header is the pointer, then the length. pre[0] is
	// (0, 0); the running sums go from pre[1] on.
	MOVQ  (R12), AX
	MOVQ  ObsClusters_perm(AX), DX
	MOVQ  (ObsClusters_perm+8)(AX), CX
	LEAQ  16(R14), BX
	VPXOR X0, X0, X0

cell:
	MOVLQSX (DX), R13
	LEAQ    (R13)(R13*2), R13
	VPADDQ  8(SI)(R13*8), X0, X0
	VMOVDQU X0, (BX)
	ADDQ    $4, DX
	ADDQ    $16, BX
	DECQ    CX
	JNZ     cell

	// Run i is [ends[i−1], ends[i]), ends[−1] = 0; BX holds its start
	// times 16, the byte offset of its running sum.
	MOVQ ObsClusters_ends(AX), R10
	MOVQ (ObsClusters_ends+8)(AX), CX
	MOVQ ObsClusters_Clusters(AX), R11
	XORQ BX, BX

run:
	MOVLQSX (R10), R13
	SHLQ    $4, R13
	MOVQ    (R11), AX
	MOVQ    R13, DX
	SUBQ    BX, DX
	SHRQ    $4, DX
	IMULQ   R9, DX
	ADDQ    ObsCluster_Stats(AX), DX
	MOVQ    DX, 0(DI)
	VMOVDQU (R14)(R13*1), X1
	VPSUBQ  (R14)(BX*1), X1, X1
	VPADDQ  (ObsCluster_Stats+8)(AX), X1, X1
	VMOVDQU X1, 8(DI)
	MOVQ    R13, BX
	ADDQ    $4, R10
	ADDQ    $8, R11
	ADDQ    $24, DI
	DECQ    CX
	JNZ     run

	ADDQ $8, R12
	DECQ nc+16(FP)
	JNZ  cand

	RET

package cluster

import (
	"slices"

	"parsimone/internal/cpu"
	"parsimone/internal/score"
)

// useKernel reports that GainsAttachVar and GainsMergeVar gather their
// blocks with the AVX2 kernels (cpu.AVX2). Tests clear it to force the
// portable loops.
var useKernel = cpu.AVX2

// gatherKernel appends to b.stats, for every candidate cluster lo … hi−1
// of cc and each of its obs clusters c in order, c.Stats with row's cells
// over c's run added; the co-clustering has at most maxKernelObs
// observations.
func gatherKernel(b *Batch, cc *CoClustering, row []int32, lo, hi int) {
	if lo == hi {
		return
	}
	if need := len(row) + 9; len(b.pre) < need {
		b.pre, b.preSq = make([]int32, need), make([]int64, need)
	}
	n := b.grow(cc, lo, hi)
	gatherAVX2(&row[0], &cc.Clusters[lo], hi-lo, &b.pre[0], &b.preSq[0], &b.stats[n])
}

// gatherAVX2 runs the gather over the nc > 0 candidate clusters at vcs into
// dst, which has room for their blocks; pre and preSq have room for
// len(row)+9 entries, the first of them 0. It reads ObsClusters and
// ObsCluster at the offsets go_asm.h gives, and score.Stats, which go_asm.h
// does not describe, as N, Sum and SumSq at bytes 0, 8 and 16 of 24
// (TestStatsLayout pins that layout).
//
//go:noescape
func gatherAVX2(row *int32, vcs **ObsClusters, nc int, pre *int32, preSq *int64, dst *score.Stats)

// grow extends b.stats by the blocks of the candidate clusters lo … hi−1
// of cc and returns its old length.
func (b *Batch) grow(cc *CoClustering, lo, hi int) int {
	blocks := 0
	for _, vc := range cc.Clusters[lo:hi] {
		blocks += len(vc.Clusters)
	}
	n := len(b.stats)
	b.stats = slices.Grow(b.stats, blocks)[:n+blocks]
	return n
}

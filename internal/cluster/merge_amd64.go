package cluster

import (
	"slices"

	"parsimone/internal/cpu"
	"parsimone/internal/score"
)

// useKernel reports that GainsAttachVar and GainsMergeVar gather their
// blocks with the AVX2 kernel (cpu.AVX2). Tests clear it to force the
// portable loop.
var useKernel = cpu.AVX2

// mergeKernel appends to b.stats, for every candidate cluster lo … hi−1
// of cc and each of its obs clusters c in order, c.Stats with the source's
// column statistics cols over c's run added, every cols[j].N being the
// source's variable count.
func mergeKernel(b *Batch, cc *CoClustering, cols []score.Stats, lo, hi int) {
	if lo == hi {
		return
	}
	if need := 2 * (len(cols) + 1); len(b.runs) < need {
		b.runs = make([]int64, need)
	}
	n := b.grow(cc, lo, hi)
	mergeAVX2(&cols[0], &cc.Clusters[lo], hi-lo, cols[0].N, &b.runs[0], &b.stats[n])
}

// mergeAVX2 runs the gather over the nc > 0 candidate clusters at vcs into
// dst, which has room for their blocks; pre has room for the running sums,
// len(cols)+1 (Sum, SumSq) pairs, the first of them (0, 0). It reads
// ObsClusters and ObsCluster at the offsets go_asm.h gives, and
// score.Stats as N, Sum and SumSq at bytes 0, 8 and 16 of 24
// (TestStatsLayout pins that layout).
//
//go:noescape
func mergeAVX2(cols *score.Stats, vcs **ObsClusters, nc int, nsrc int64, pre *int64, dst *score.Stats)

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

package cluster

import "parsimone/internal/score"

// Batch is the scratch of the batched gain evaluations (GainsAttachVar,
// GainsMergeVar, GainsAttachObs, GainsMergeObs), which score every block of
// a candidate range in one Kernel.LogMLBatch call and fold each candidate's
// gain from the results (DESIGN §28). Each out[i] is bit-equal to the
// matching scalar Gain* call: the blocks are the same exact statistics, each
// score is the same bits (Kernel.LogMLBatch ≡ Kernel.LogML), and every fold
// subtracts the same stored scores in the scalar call's order. The zero
// value is ready; one Batch serves one goroutine.
type Batch struct {
	stats []score.Stats
	vals  []float64
	// runs is the gather kernel's running sums.
	runs []int64
}

// score evaluates every gathered block with k and returns the scores in
// gathering order.
func (b *Batch) score(k *score.Kernel) []float64 {
	if cap(b.vals) < len(b.stats) {
		b.vals = make([]float64, len(b.stats), cap(b.stats))
	}
	vals := b.vals[:len(b.stats)]
	k.LogMLBatch(vals, b.stats)
	return vals
}

// fold stores in out[i], for the candidate variable clusters lo … of cc
// whose blocks were gathered in order, Σ (score − stored score) over the
// candidate's blocks; skip is a candidate with no blocks gathered (the new
// cluster, the merge source, or −1), whose out entry fold leaves alone.
func fold(cc *CoClustering, vals []float64, skip, lo int, out []float64) {
	for i := range out {
		if lo+i == skip || lo+i == len(cc.Clusters) {
			continue
		}
		var gain float64
		for bi, c := range cc.Clusters[lo+i].Clusters {
			gain += vals[bi] - c.logML
		}
		out[i], vals = gain, vals[len(cc.Clusters[lo+i].Clusters):]
	}
}

// gather appends to b.stats, for every candidate variable cluster lo … hi−1
// of cc but skip, and each of its obs clusters c in order, c.Stats with the
// source's column statistics cols summed over c's run added (DESIGN §30).
// On amd64 with AVX2 the kernel gathers the blocks; elsewhere the portable
// loop, which is the reference.
func (cc *CoClustering) gather(b *Batch, cols []score.Stats, skip, lo, hi int) {
	if lo <= skip && skip < hi {
		cc.gather(b, cols, -1, lo, skip)
		cc.gather(b, cols, -1, skip+1, hi)
		return
	}
	if useKernel {
		mergeKernel(b, cc, cols, lo, hi)
		return
	}
	for _, vc := range cc.Clusters[lo:hi] {
		for ci, c := range vc.Clusters {
			part := c.Stats
			for _, j := range vc.Obs(ci) {
				part.Merge(cols[j])
			}
			b.stats = append(b.stats, part)
		}
	}
}

// GainsAttachVar stores GainAttachVar(x, lo+i) in out[i] for every i, where
// cols is VarColumnStats of the detached variable x alone: moving a
// variable is merging a one-variable source, so its blocks are gathered as
// GainsMergeVar's are, and the new-cluster candidate's block is Σ cols.
func (cc *CoClustering) GainsAttachVar(b *Batch, cols []score.Stats, lo int, out []float64) {
	k := len(cc.Clusters)
	hi := lo + len(out)
	b.stats = b.stats[:0]
	cc.gather(b, cols, -1, min(lo, k), min(hi, k))
	newCluster := lo <= k && k < hi
	if newCluster {
		var all score.Stats
		for _, c := range cols {
			all.Merge(c)
		}
		b.stats = append(b.stats, all)
	}
	vals := b.score(cc.Kernel)
	fold(cc, vals, -1, lo, out)
	if newCluster {
		out[k-lo] = vals[len(vals)-1]
	}
}

// GainsMergeVar stores GainMergeVar(cols, src, lo+i) in out[i] for every i.
// cols must be VarColumnStats of src's variables.
func (cc *CoClustering) GainsMergeVar(b *Batch, cols []score.Stats, src, lo int, out []float64) {
	b.stats = b.stats[:0]
	cc.gather(b, cols, src, lo, lo+len(out))
	fold(cc, b.score(cc.Kernel), src, lo, out)
	for i := range out {
		if lo+i == src {
			out[i] = 0
			continue
		}
		for _, c := range cc.Clusters[src].Clusters {
			out[i] -= c.logML
		}
	}
}

// GainsAttachObs stores GainAttachObs(col, lo+i) in out[i] for every i.
func (oc *ObsClusters) GainsAttachObs(b *Batch, col score.Stats, lo int, out []float64) {
	l := len(oc.Clusters)
	b.stats = b.stats[:0]
	for to := lo; to < lo+len(out); to++ {
		if to == l {
			b.stats = append(b.stats, col)
		} else {
			b.stats = append(b.stats, oc.Clusters[to].Stats.Plus(col))
		}
	}
	vals := b.score(oc.Kernel)
	for i := range out {
		if lo+i == l {
			out[i] = vals[i]
		} else {
			out[i] = vals[i] - oc.Clusters[lo+i].logML
		}
	}
}

// GainsMergeObs stores GainMergeObs(src, lo+i) in out[i] for every i.
func (oc *ObsClusters) GainsMergeObs(b *Batch, src, lo int, out []float64) {
	a := oc.Clusters[src]
	b.stats = b.stats[:0]
	for dst := lo; dst < lo+len(out); dst++ {
		if dst != src {
			b.stats = append(b.stats, a.Stats.Plus(oc.Clusters[dst].Stats))
		}
	}
	vals := b.score(oc.Kernel)
	for i := range out {
		dst := lo + i
		if dst == src {
			out[i] = 0
			continue
		}
		out[i], vals = vals[0]-a.logML-oc.Clusters[dst].logML, vals[1:]
	}
}

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
	// pre and preSq are the attach-var kernel's running sums, runs the
	// merge-var kernel's.
	pre   []int32
	preSq []int64
	runs  []int64
}

// maxKernelObs is the largest observation count the gather kernel takes:
// it sums cells mod 2³², which is exact while every block's sum, at most
// m·MaxAbsCell in magnitude, fits an int32.
const maxKernelObs = 1<<31/score.MaxAbsCell - 1

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

// GainsAttachVar stores GainAttachVar(x, lo+i) in out[i] for every i. On
// amd64 with AVX2 each candidate's blocks are gathered by the kernel over
// its observation layout (DESIGN §30); elsewhere, and for more than
// maxKernelObs observations, by the portable loop, which is the reference.
func (cc *CoClustering) GainsAttachVar(b *Batch, x, lo int, out []float64) {
	row := cc.Q.Row(x)
	k := len(cc.Clusters)
	hi := lo + len(out)
	b.stats = b.stats[:0]
	if useKernel && cc.Q.M <= maxKernelObs {
		gatherKernel(b, cc, row, min(lo, k), min(hi, k))
	} else {
		for _, vc := range cc.Clusters[min(lo, k):min(hi, k)] {
			for ci, c := range vc.Clusters {
				var sum, sumsq int64
				obs := vc.Obs(ci)
				for _, j := range obs {
					v := int64(row[j])
					sum += v
					sumsq += v * v
				}
				b.stats = append(b.stats, score.Stats{
					N: c.Stats.N + int64(len(obs)), Sum: c.Stats.Sum + sum, SumSq: c.Stats.SumSq + sumsq})
			}
		}
	}
	newCluster := lo <= k && k < hi
	if newCluster {
		b.stats = append(b.stats, score.StatsOf(row))
	}
	vals := b.score(cc.Kernel)
	fold(cc, vals, -1, lo, out)
	if newCluster {
		out[k-lo] = vals[len(vals)-1]
	}
}

// GainsMergeVar stores GainMergeVar(cols, src, lo+i) in out[i] for every i.
// cols must be VarColumnStats of src. On amd64 with AVX2 each candidate's
// blocks are gathered by the merge-var kernel over its observation layout
// (DESIGN §31); elsewhere by the portable loop, which is the reference.
func (cc *CoClustering) GainsMergeVar(b *Batch, cols []score.Stats, src, lo int, out []float64) {
	hi := lo + len(out)
	b.stats = b.stats[:0]
	if useKernel {
		nsrc := int64(len(cc.Clusters[src].Vars))
		if lo <= src && src < hi {
			mergeKernel(b, cc, cols, nsrc, lo, src)
			mergeKernel(b, cc, cols, nsrc, src+1, hi)
		} else {
			mergeKernel(b, cc, cols, nsrc, lo, hi)
		}
	} else {
		for dst := lo; dst < hi; dst++ {
			if dst == src {
				continue
			}
			dc := cc.Clusters[dst]
			for ci, c := range dc.Clusters {
				part := c.Stats
				for _, j := range dc.Obs(ci) {
					part.Merge(cols[j])
				}
				b.stats = append(b.stats, part)
			}
		}
	}
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

// Segmented-scan split selection — the communication structure the paper
// implements for Algorithm 5 and the one selection of every world, the
// one-rank world included (DESIGN §20): "the contiguous arrangement of
// candidate splits for every node allows us to compute the split weights for
// random sampling for all the nodes using a single segmented parallel scan
// over the distributed cand-probs. Then, the splits for all the nodes are selected independently
// on each processor, followed by an all-gather call to collect all the
// chosen splits" (§3.2.3).
//
// The schedule decides only which spans of the global candidate list a rank
// scores. The static schedule gives each rank one BlockRange block
// (Algorithm 5 line 5). The dynamic schedule — the paper's stated future
// work (§6: "implementing a dynamic load balancing scheme for computing the
// posterior probabilities for all the candidate parent splits") — has every
// rank, rank 0 included, take the next chunk number from one world-shared
// counter and score that chunk, so slow (high-step-count) splits no longer
// pin a whole block to one rank. Chunk k is the range
// [alignUp(k·chunk), alignUp((k+1)·chunk)): its bounds depend on k alone and
// end on pair boundaries, so no pair is evaluated in two pieces on that
// schedule.
//
// Posteriors stay where they were scored. Two all-gathers carry the
// per-span per-node weight partials and the chosen splits, O(spans + nodes +
// J·nodes) elements — the paper's O(τ log p + µJKRL) communication bound —
// where gathering the posterior vector would carry every candidate. Each is
// one comm all-gather, ⌈log₂ p⌉ sends per rank, in which every element
// reaches the p−1 other ranks once whoever holds it, so the traffic does not
// depend on the schedule. Because sampling weights are integers, the
// distributed prefix sums are exact, and the selection consumes the shared
// PRNG stream exactly as a selection over the whole posterior vector would —
// node by node, J weighted picks over the quantized posteriors, then J
// uniform picks over the retained (non-zero) candidates — so the chosen
// splits are bit-identical for every world size, whichever rank scored which
// span. splits_test.go keeps that full-vector selection as the reference.

package splits

import (
	"cmp"
	"slices"

	"parsimone/internal/comm"
	"parsimone/internal/prng"
	"parsimone/internal/score"
)

// span is a range [lo, hi) of the global candidate list this rank scored:
// its posteriors, and per pick kind the sampling weight of each candidate —
// w[0] the quantized posterior (the weighted picks), w[1] one per retained
// candidate (the uniform picks).
type span struct {
	lo, hi int
	post   []float64
	w      [2][]uint64
}

// newSpan wraps the posteriors of [lo, lo+len(post)) with their weights.
// Weights come from score.QuantizeProb — a retained (positive-posterior)
// candidate must map to a positive weight, or a node whose retained
// candidates all round to zero would have nothing to draw from.
func newSpan(lo int, post []float64) span {
	sp := span{lo: lo, hi: lo + len(post), post: post}
	sp.w = [2][]uint64{make([]uint64, len(post)), make([]uint64, len(post))}
	for k, p := range post {
		sp.w[0][k] = score.QuantizeProb(p)
		sp.w[1][k] = uint64(b2i(p > 0))
	}
	return sp
}

// find returns the global index of the candidate of node ref within the
// span at which the running kind weight first exceeds rem.
func (sp *span) find(ref *nodeRef, kind int, rem uint64) int {
	var cum uint64
	for ci := max(ref.offset, sp.lo); ci < min(ref.offset+ref.count, sp.hi); ci++ {
		cum += sp.w[kind][ci-sp.lo]
		if rem < cum {
			return ci
		}
	}
	panic("splits: crossing not found in span")
}

// nodePartial is one span's contribution to one node's weight totals.
type nodePartial struct {
	// Start is the global index of the partial's first candidate: spans are
	// disjoint, so sorting by it restores the global segmented order.
	Start int
	// Node is the global node index; Rank and Span locate the span that
	// scored the partial.
	Node, Rank, Span int
	// Sum is the span's weight for the node per pick kind: the sum of its
	// quantized weights, and its count of non-zero-posterior candidates.
	Sum [2]uint64
}

// selectScan is the segmented scan over the spans each rank of c holds,
// which together tile the candidate list of nodes: it returns on every rank
// the Result of the full-vector selection.
func selectScan(c *comm.Comm, q *score.QData, nodes []*nodeRef, spans []span, par Params, g *prng.MRG3) Result {
	// Per-node partial sums of each span (the local half of the segmented
	// scan), exchanged and sorted into the global segmented order.
	var partials []nodePartial
	for si, sp := range spans {
		for ci := sp.lo; ci < sp.hi; {
			ni := nodeIndexAt(nodes, ci)
			p := nodePartial{Start: ci, Node: ni, Rank: c.Rank(), Span: si}
			for end := min(nodes[ni].offset+nodes[ni].count, sp.hi); ci < end; ci++ {
				p.Sum[0] += sp.w[0][ci-sp.lo]
				p.Sum[1] += sp.w[1][ci-sp.lo]
			}
			partials = append(partials, p)
		}
	}
	all := comm.AllGatherv(c, partials)
	slices.SortFunc(all, func(a, b nodePartial) int { return cmp.Compare(a.Start, b.Start) })

	// Selection: identical draws to the full-vector one, node by node, weighted
	// picks before uniform ones, but only the rank owning the crossing point
	// materializes the pick. owners records whose pick each one is, which is
	// the same on every rank.
	var mine []Assigned
	var owners []int
	for i, j := 0, 0; i < len(all); i = j {
		var total [2]uint64
		for j = i; j < len(all) && all[j].Node == all[i].Node; j++ {
			total[0] += all[j].Sum[0]
			total[1] += all[j].Sum[1]
		}
		if total[1] == 0 {
			continue
		}
		ref := nodes[all[i].Node]
		for kind := range 2 {
			for range par.NumSplits {
				u := g.Uint64n(total[kind])
				for _, p := range all[i:j] {
					if u < p.Sum[kind] {
						if p.Rank == c.Rank() {
							sp := &spans[p.Span]
							ci := sp.find(ref, kind, u)
							mine = append(mine, ref.assigned(q, par.Candidates, ci-ref.offset, sp.post[ci-sp.lo]))
						}
						owners = append(owners, p.Rank)
						break
					}
					u -= p.Sum[kind]
				}
			}
		}
	}

	// Collect the picks (the paper's final all-gather) and lay them out in
	// canonical (node, kind, sequence) order by taking each from its owner's
	// list in turn. Every selecting node made J weighted, then J uniform
	// picks.
	picks := comm.AllGather(c, mine)
	var res Result
	for i, owner := range owners {
		a := picks[owner][0]
		picks[owner] = picks[owner][1:]
		if i/par.NumSplits%2 == 0 {
			res.Weighted = append(res.Weighted, a)
		} else {
			res.Uniform = append(res.Uniform, a)
		}
	}
	return res
}

// Segmented-scan split selection — the communication structure the paper
// implements for Algorithm 5 and the one static exchange of a world of more
// than one rank: "the contiguous arrangement of candidate splits for every
// node allows us to compute the split weights for random sampling for all
// the nodes using a single segmented parallel scan over the distributed
// cand-probs. Then, the splits for all the nodes are selected independently
// on each processor, followed by an all-gather call to collect all the
// chosen splits" (§3.2.3).
//
// Posteriors stay where they were scored. Two all-gathers carry the
// per-node per-rank weight partials and the chosen splits, O(p·nodes +
// J·nodes) elements — the paper's O(τ log p + µJKRL) communication bound —
// where gathering the posterior vector would carry every candidate. Because
// sampling weights are integers, the distributed prefix sums are exact, and
// the selection consumes the shared PRNG stream exactly as selectSplits does
// over the full vector, so the chosen splits are bit-identical to a one-rank
// world's.

package splits

import (
	"sort"

	"parsimone/internal/comm"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/tree"
)

// nodePartial is one rank's contribution to one node's weight totals.
type nodePartial struct {
	Rank int
	// Node is the global node index.
	Node int
	// Weight is the sum of this rank's quantized weights for the node;
	// Retained the count of non-zero-posterior candidates.
	Weight   uint64
	Retained int
}

// pickMsg is one chosen split, sent to all ranks by its owner.
type pickMsg struct {
	Node int
	// Kind 0 = weighted, 1 = uniform; S is the pick's sequence number.
	Kind, S int
	A       Assigned
}

// learnScan is LearnWithComm's static exchange: each rank scores its block
// of the global list, and the segmented scan selects the same Result
// selectSplits would over the whole posterior vector.
func learnScan(rc rank.Context, q *score.QData, kern *score.Kernel, modules [][]int,
	trees [][]*tree.Tree, par Params, g *prng.MRG3) Result {
	c := rc.Comm
	ev := newEvaluator(rc, q, kern, modules, trees, par, g)
	par, nodes := ev.par, ev.nodes

	// Local posteriors over this rank's block, kept distributed. Weights
	// come from score.QuantizeProb — the same grid as selectSplits, bit for
	// bit, or the two selections would consume the shared PRNG stream
	// differently.
	lo, hi := comm.BlockRange(ev.total, c.Size(), c.Rank())
	localP, localSteps, st := ev.eval(lo, hi)
	ev.observe(st, localSteps)
	localW := make([]uint64, hi-lo)
	for k, p := range localP {
		localW[k] = score.QuantizeProb(p)
	}

	// Per-node partial sums of this rank's block (the local half of the
	// segmented scan).
	var partials []nodePartial
	ni := 0
	for ci := lo; ci < hi; ci++ {
		for nodes[ni].offset+nodes[ni].count <= ci {
			ni++
		}
		if len(partials) == 0 || partials[len(partials)-1].Node != ni {
			partials = append(partials, nodePartial{Rank: c.Rank(), Node: ni})
		}
		p := &partials[len(partials)-1]
		p.Weight += localW[ci-lo]
		if localP[ci-lo] > 0 {
			p.Retained++
		}
	}
	// All-gather the partials: entries arrive rank-major and node-ascending
	// within a rank, giving every rank the full segmented prefix structure.
	allPartials := comm.AllGatherv(c, partials)
	byNode := make([][]nodePartial, len(nodes))
	for _, p := range allPartials {
		byNode[p.Node] = append(byNode[p.Node], p)
	}

	// mkLocal materializes the Assigned for a candidate this rank owns.
	mkLocal := func(nodeIdx, ci int) Assigned {
		ref := nodes[nodeIdx]
		return ref.assigned(q, par.Candidates, ci-ref.offset, localP[ci-lo])
	}

	// Selection: identical draws to selectSplits, but only the rank owning
	// the crossing point materializes the pick.
	var localPicks []pickMsg
	for nodeIdx := range nodes {
		var totalW uint64
		retained := 0
		for _, p := range byNode[nodeIdx] {
			totalW += p.Weight
			retained += p.Retained
		}
		if retained == 0 {
			continue
		}
		for s := 0; s < par.NumSplits; s++ {
			u := g.Uint64n(totalW)
			var cum uint64
			for _, p := range byNode[nodeIdx] {
				if u < cum+p.Weight {
					if p.Rank == c.Rank() {
						ci := findWeighted(nodes[nodeIdx], lo, hi, localW, u-cum)
						localPicks = append(localPicks, pickMsg{Node: nodeIdx, Kind: 0, S: s, A: mkLocal(nodeIdx, ci)})
					}
					break
				}
				cum += p.Weight
			}
		}
		for s := 0; s < par.NumSplits; s++ {
			u := g.Uint64n(uint64(retained))
			var cum uint64
			for _, p := range byNode[nodeIdx] {
				if u < cum+uint64(p.Retained) {
					if p.Rank == c.Rank() {
						ci := findRetained(nodes[nodeIdx], lo, hi, localP, int(u-cum))
						localPicks = append(localPicks, pickMsg{Node: nodeIdx, Kind: 1, S: s, A: mkLocal(nodeIdx, ci)})
					}
					break
				}
				cum += uint64(p.Retained)
			}
		}
	}

	// Collect the picks (the paper's final all-gather) and restore the
	// canonical (node, kind, sequence) order. Received collective payloads
	// are shared between ranks (comm passes references), so sort a copy.
	all := append([]pickMsg(nil), comm.AllGatherv(c, localPicks)...)
	sort.Slice(all, func(a, b int) bool {
		if all[a].Node != all[b].Node {
			return all[a].Node < all[b].Node
		}
		if all[a].Kind != all[b].Kind {
			return all[a].Kind < all[b].Kind
		}
		return all[a].S < all[b].S
	})
	var res Result
	for _, p := range all {
		if p.Kind == 0 {
			res.Weighted = append(res.Weighted, p.A)
		} else {
			res.Uniform = append(res.Uniform, p.A)
		}
	}
	return res
}

// findWeighted locates the candidate index within this rank's slice of the
// node whose local weight prefix crosses rem.
func findWeighted(ref *nodeRef, lo, hi int, localW []uint64, rem uint64) int {
	start := max(ref.offset, lo)
	end := min(ref.offset+ref.count, hi)
	var cum uint64
	for ci := start; ci < end; ci++ {
		cum += localW[ci-lo]
		if rem < cum {
			return ci
		}
	}
	panic("splits: weighted crossing not found in local block")
}

// findRetained locates the rem-th retained (positive-posterior) candidate
// within this rank's slice of the node.
func findRetained(ref *nodeRef, lo, hi int, localP []float64, rem int) int {
	start := max(ref.offset, lo)
	end := min(ref.offset+ref.count, hi)
	for ci := start; ci < end; ci++ {
		if localP[ci-lo] > 0 {
			if rem == 0 {
				return ci
			}
			rem--
		}
	}
	panic("splits: retained crossing not found in local block")
}

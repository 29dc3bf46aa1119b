// Dynamic split distribution — the paper's stated future work (§6:
// "implementing a dynamic load balancing scheme for computing the posterior
// probabilities for all the candidate parent splits"). Every rank, rank 0
// included, takes the next chunk number from one world-shared counter and
// scores that chunk of the global candidate list, so slow
// (high-step-count) splits no longer pin an entire static block to one
// rank, and no rank is spent on coordination.
//
// Chunk k is the range [alignUp(k·chunk), alignUp((k+1)·chunk)): its bounds
// depend on k alone and end on pair boundaries, so no pair is ever
// evaluated in two pieces on this path. Because every pair's bootstrap
// draws come from the substream numbered by its global index, the computed
// posteriors — and therefore the learned network — are identical to the
// static scheme's output; only which rank scores which chunk changes.

package splits

import (
	"parsimone/internal/comm"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/tree"
)

// valMsg carries one computed posterior to the other ranks.
type valMsg struct {
	Index int
	P     float64
}

// learnDynamic is LearnWithComm's dynamic exchange: every rank scores the
// chunks of par.DynamicChunk candidates it takes from a shared counter until
// the list is exhausted, the ranks broadcast their posteriors in turn, and
// every rank selects with selectSplits over the whole vector. No cost
// events are emitted on this path: which rank scores which chunk depends on
// scheduling, and per-rank cost events would break the event-stream
// determinism the static path guarantees. The metrics are sums over
// whatever chunks this rank took, so the registry totals stay
// schedule-invariant.
func learnDynamic(rc rank.Context, q *score.QData, kern *score.Kernel, modules [][]int,
	trees [][]*tree.Tree, par Params, g *prng.MRG3) Result {
	c, chunk := rc.Comm, par.DynamicChunk
	ev := newEvaluator(rc, q, kern, modules, trees, par, g)
	// start is chunk k's first candidate; k·chunk is only formed while it
	// is below the list's end, so it cannot overflow.
	start := func(k int) int {
		if k > (ev.total-1)/chunk {
			return ev.total
		}
		return ev.alignUp(k * chunk)
	}
	next := comm.NewCounter(c)
	var local []valMsg
	var steps []int
	for k := next.Next(c); start(k) < ev.total; k = next.Next(c) {
		lo, hi := start(k), start(k+1)
		post, s, _ := ev.eval(lo, hi)
		for i, p := range post {
			local = append(local, valMsg{Index: lo + i, P: p})
		}
		steps = append(steps, s...)
	}
	ev.recordMetrics(rc.Hooks.Registry(), steps)

	// Each rank broadcasts what it scored: every posterior reaches the p−1
	// other ranks once, whoever scored it, so the exchange's traffic —
	// (p−1)·total elements in p·(p−1) sends — does not depend on the
	// schedule. A gather to a root would not send the root's own share.
	posteriors := make([]float64, ev.total)
	for root := range c.Size() {
		for _, v := range comm.Bcast(c, root, local) {
			posteriors[v.Index] = v.P
		}
	}
	return selectSplits(q, ev.nodes, posteriors, ev.par, g)
}

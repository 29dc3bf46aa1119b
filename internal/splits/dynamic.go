// Dynamic split distribution — the paper's stated future work (§6:
// "implementing a dynamic load balancing scheme for computing the posterior
// probabilities for all the candidate parent splits"). Rank 0 acts as the
// coordinator, dealing fixed-size chunks of the global candidate list to
// workers on demand, so slow (high-step-count) splits no longer pin an
// entire static block to one rank.
//
// Because every pair's bootstrap draws come from the substream numbered by
// its global index, the computed posteriors — and therefore the learned
// network — are identical to the static scheme's output; only the
// assignment of work to ranks changes. Dealt chunks end on pair boundaries,
// so no pair is ever evaluated in two pieces on this path.

package splits

import (
	"fmt"

	"parsimone/internal/comm"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/tree"
)

// chunkMsg is the coordinator's reply to a work request: the half-open
// candidate range [Lo, Hi); Lo == -1 signals that the list is exhausted.
type chunkMsg struct{ Lo, Hi int }

// valMsg carries one computed posterior back to the gather phase.
type valMsg struct {
	Index int
	P     float64
}

// LearnParallelDynamic is the dynamic-scheme counterpart of the static scan:
// ranks 1…p−1 request chunks of par.DynamicChunk candidates from the rank-0
// coordinator until the list is exhausted, so expensive splits no longer pin
// a whole static block to one rank. It shares the evaluator with the static
// path and a one-rank world's selection, and returns the identical result. It needs what
// LearnWithComm checks before choosing it: a worker rank to deal to and a
// positive chunk size.
func LearnParallelDynamic(rc rank.Context, q *score.QData, kern *score.Kernel, modules [][]int,
	trees [][]*tree.Tree, par Params, g *prng.MRG3) Result {
	c, chunk := rc.Comm, par.DynamicChunk
	if c.Size() < 2 || chunk <= 0 {
		panic(fmt.Sprintf("splits: the dynamic scheme needs a worker rank and a positive chunk size, got %d ranks and chunk %d", c.Size(), chunk))
	}
	ev := newEvaluator(rc, q, kern, modules, trees, par, g)
	par, total := ev.par, ev.total

	var local []valMsg
	if c.Rank() == 0 {
		// Coordinator: deal chunks on request; each worker is released
		// with an exhausted marker once the list is done.
		next := 0
		active := c.Size() - 1
		for active > 0 {
			// The wait honors both the watchdog timeout and the run's
			// cancel signal (comm.RecvAnyCtx): a hung worker turns into a
			// detectable failure after CoordTimeout, and a cancelled run
			// releases the coordinator immediately instead of waiting the
			// timeout out.
			_, worker, ok := comm.RecvAnyCtx[int](c, rc.Cancel, par.CoordTimeout)
			if !ok {
				panic(fmt.Errorf("splits: dynamic coordinator timed out after %v waiting for a work request (%d workers still active)",
					par.CoordTimeout, active))
			}
			if next < total {
				hi := ev.alignUp(min(next+chunk, total))
				comm.Send(c, worker, chunkMsg{Lo: next, Hi: hi})
				next = hi
			} else {
				comm.Send(c, worker, chunkMsg{Lo: -1})
				active--
			}
		}
	} else {
		// Workers evaluate each dealt chunk through the intra-rank pool;
		// valMsg carries the global index, so dealing order never affects
		// the gathered result. No cost events are emitted on this path:
		// which rank computes which chunk is demand-driven, and per-rank
		// cost events would break the event-stream determinism the static
		// path guarantees. The metrics are sums over whatever this
		// rank was dealt, so the registry totals stay schedule-invariant.
		reg := rc.Hooks.Registry()
		var steps []int
		for {
			comm.Send(c, 0, c.Rank())
			ch := comm.Recv[chunkMsg](c, 0)
			if ch.Lo < 0 {
				break
			}
			post, s, _ := ev.eval(ch.Lo, ch.Hi)
			for k, p := range post {
				local = append(local, valMsg{Index: ch.Lo + k, P: p})
			}
			if reg != nil {
				steps = append(steps, s...)
			}
		}
		ev.recordMetrics(reg, steps)
	}

	// Gather all posteriors everywhere and restore canonical order.
	all := comm.AllGatherv(c, local)
	posteriors := make([]float64, total)
	for _, v := range all {
		posteriors[v.Index] = v.P
	}
	return selectSplits(q, ev.nodes, posteriors, par, g)
}

// Package rank holds the per-rank run context: how one rank of a world
// executes a task. The engine packages' Params say what to learn; nothing in
// a Context can change the learned network (DESIGN §21).
package rank

import (
	"slices"

	"parsimone/internal/comm"
	"parsimone/internal/obs"
	"parsimone/internal/pool"
	"parsimone/internal/trace"
)

// Context is one rank's view of a run; core builds one per rank. All ranks
// of a world must agree on whether Hooks is observed: the split phase gathers
// a rank summary when it is, so a mixed world would deadlock like any other
// disagreement on a collective.
type Context struct {
	// Comm is the rank's endpoint in its world.
	Comm *comm.Comm
	// Workers is W, the intra-rank worker goroutines a distributed
	// evaluation is fanned over (internal/pool); 0 or 1 means serial.
	Workers int
	// Hooks are the rank's accounting sinks — events, metrics and the work
	// record; nil disables all three.
	Hooks *obs.Hooks
	// Cancel is the rank's cooperative cancellation signal, polled at
	// deterministic program points (DESIGN §13); nil never cancels.
	Cancel *comm.Canceler
}

// Self is the context of a sequential call: the one-rank world, serial,
// unobserved, never cancelled, recording into wl (nil disables).
func Self(wl *trace.Workload) Context {
	return Context{Comm: comm.Self(), Hooks: obs.NewHooks(nil, nil, wl)}
}

// decisionChunk is the pool chunk size of a distributed decision. Candidate
// scores are much cheaper than split posteriors; small chunks keep the
// round-robin deal balanced over the short candidate lists of one decision.
const decisionChunk = 8

// Evaluate stores the score of each of the len(out) candidates of one
// collective decision in out, identically on every rank, and accounts the
// decision through Hooks.Decision (DESIGN §19). cost(i) is the deterministic
// cost of scoring candidate i; eval(w, lo, s) scores candidates
// lo … lo+len(s)−1 into s on pool worker w, reading replicated state only.
// The decision is distributed only when its costs sum to trace.Distributed,
// a replicated value, so every rank and every p×W takes the same branch; one
// unobserved goroutine has nobody to tell the cost to and skips the sum. A
// decision that is not distributed is one eval over all candidates on every
// rank, with no message and no spawn. A distributed one is block-partitioned
// over the ranks, each block dealt over the rank's pool workers one eval per
// chunk, and the scores all-gathered, one word each.
func (rc Context) Evaluate(phase string, out []float64, cost func(int) float64, eval func(w, lo int, out []float64)) {
	var total float64
	if rc.Comm.Size()*max(1, rc.Workers) > 1 || rc.Hooks != nil {
		for i := range out {
			total += cost(i)
		}
	}
	var st pool.Stats
	if !trace.Distributed(total) {
		eval(0, 0, out)
	} else {
		c := rc.Comm
		lo, hi := comm.BlockRange(len(out), c.Size(), c.Rank())
		local := out[lo:hi]
		// The pool hands each worker whole chunks, in ascending order, so a
		// chunk's first item stands for the chunk: that call scores the
		// whole chunk. When one worker takes the whole block, it is one call.
		n := hi - lo
		span := decisionChunk
		if rc.Workers <= 1 || n <= decisionChunk {
			span = n
		}
		st = pool.For(n, rc.Workers, decisionChunk, func(k, w int) float64 {
			if k%span == 0 {
				eval(w, lo+k, local[k:min(k+span, n)])
			}
			return cost(lo + k)
		})
		// Peers may still read the sent block after the all-gather returns
		// here, and the caller's next decision overwrites out: send a copy.
		copy(out, comm.AllGatherv(c, slices.Clone(local)))
	}
	rc.Hooks.Decision(phase, len(out), cost, total, int64(len(out)), st)
}

// Package splits implements the parent-split assignment phase of the
// module-learning task (§2.2.3 step 2, Algorithm 5 of the paper) — the phase
// that accounts for more than 90 % of the sequential run time and whose
// variable per-split cost causes the load imbalance analyzed in §5.3.1.
//
// Every combination ⟨module Mᵢ, tree T, internal node N, candidate parent
// Xᵢ, observation Dⱼ at N⟩ is a candidate split. Its posterior — the
// probability that splitting N's observations on Xᵢ ≤ Dᵢⱼ improves the
// Bayesian score — is estimated by bootstrap resampling with early
// termination: at least minSteps and at most MaxSteps resamples of the
// node's observations, each costing O(|N|) work, stopping once the estimate
// is confidently resolved. Clear splits resolve in minSteps; ambiguous ones
// run to MaxSteps, which reproduces the paper's observation that "the time
// required for this phase cannot be estimated a priori and varies
// significantly across splits".
//
// The candidate list is flattened globally and block-partitioned over ranks
// (the paper's fine-grained distribution; Algorithm 5 line 5), or dealt in
// chunks from a shared counter (the dynamic schedule); either way the ranks
// select with one segmented scan over the posteriors where they were scored
// (scan.go). The nObs thresholds of a ⟨node, parent⟩ pair share one bootstrap
// resample per step, drawn from a numbered PRNG substream indexed by the
// pair's *global* position, so posteriors are identical for every rank count
// and for the sequential run (§4.2's block-split PRNG discipline; eval.go,
// DESIGN §18).
package splits

import (
	"fmt"

	"parsimone/internal/comm"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/trace"
	"parsimone/internal/tree"
)

// Params configures split assignment.
type Params struct {
	// NumSplits is J: how many weighted and how many uniform splits are
	// chosen per node. Values ≤ 0 select the default, 2.
	NumSplits int
	// MaxSteps is S, the bootstrap resampling cap per split. Values ≤ 0
	// select the default, 64.
	MaxSteps int
	// Candidates is the candidate-parent list P; nil means every
	// variable (the paper's genome-scale setting).
	Candidates []int
	// DynamicChunk, when positive, makes a world of more than one rank use
	// the dynamic distribution (the paper's §6 future work) — every rank
	// takes chunks of this many candidates from a shared counter — instead
	// of the static block partition. Both schedules select with the same
	// segmented scan, and the learned result is identical either way.
	DynamicChunk int
	// Deprecated: ignored; the segmented scan is the one static exchange.
	// Deleted with its last setter, benchmark/batch.go (ROADMAP 2(d)).
	ScanSelection bool
}

// The bootstrap's early-termination rule, Lemon-Tree's and the same in every
// run (DESIGN §18): a threshold may retire from minSteps resamples on, once
// the normal-approximation confidence half-width of its posterior drops
// below ciHalfWidth.
const (
	minSteps    = 8
	ciHalfWidth = 0.08
)

// WithDefaults returns p with every unset field replaced by its documented
// default, for a data set of n variables.
func (p Params) WithDefaults(n int) Params {
	if p.NumSplits <= 0 {
		p.NumSplits = 2
	}
	if p.MaxSteps <= 0 {
		p.MaxSteps = 64
	}
	if p.Candidates == nil {
		p.Candidates = make([]int, n)
		for i := range p.Candidates {
			p.Candidates[i] = i
		}
	}
	return p
}

// Validate reports what WithDefaults cannot repair, for a data set of n
// variables, before any learning runs (core's Options validation): a non-nil
// empty Candidates (nil means every variable; an empty list would yield an
// empty Result without a word), an index outside [0, n), which would fail
// inside a world, or a repeated one, whose parent would be scored twice.
func (p Params) Validate(n int) error {
	if p.Candidates != nil && len(p.Candidates) == 0 {
		return fmt.Errorf("splits: Candidates must be nil (all variables) or non-empty — an empty list yields zero candidate splits and an empty Result")
	}
	first := make(map[int]int, len(p.Candidates)) // a variable's first position
	for i, v := range p.Candidates {
		if v < 0 || v >= n {
			return fmt.Errorf("splits: Candidates[%d] = %d is not one of the %d variables [0, %d)", i, v, n, n)
		}
		if j, ok := first[v]; ok {
			return fmt.Errorf("splits: Candidates[%d] = %d repeats Candidates[%d]; list each candidate parent once", i, v, j)
		}
		first[v] = i
	}
	return nil
}

// Assigned is one split assigned to a tree node.
type Assigned struct {
	// Module, Tree and Node locate the internal node (tree and node in
	// canonical enumeration order; node indexes the pre-order internal
	// list of its tree).
	Module, Tree, Node int
	// Parent is the split variable; Value the quantized split threshold
	// (x ≤ Value goes left).
	Parent int
	Value  int64
	// Posterior is the bootstrap posterior of the split improving the
	// score; NodeObs the number of observations at the node (the weight
	// used for parent scoring).
	Posterior float64
	NodeObs   int
}

// Result holds the splits chosen per node: Weighted by posterior-weighted
// random sampling, Uniform by uniform random sampling over the retained
// candidates (§2.2.3 step 2(ii)).
type Result struct {
	Weighted []Assigned
	Uniform  []Assigned
}

// PhaseAssign is the work-recording phase name for posterior computation.
const PhaseAssign = "splits/assign"

// LearnWithComm computes posteriors over the ranks of rc's world and selects
// splits identically on every rank, with one body for every world size: each
// rank scores its spans of the global candidate list, fanned over its
// rc.Workers pool workers, and the paper's segmented scan selects where they
// were scored (scan.go). The static schedule scores one block per rank
// (Algorithm 5 line 5; a one-rank world's is the whole list). With
// par.DynamicChunk set, the ranks of a larger world instead take chunks from
// a shared counter; one rank has nobody to balance against. Which rank
// scored which chunk depends on scheduling, so that schedule emits no
// per-rank cost events, and its metrics sum over this rank's chunks.
// Posteriors, trace items and the selected splits are bit-identical for
// every (rank count, W, schedule): each pair draws only from its own
// numbered substream. No cancellation check is polled here: a module's
// splits are recomputed wholesale on resume.
func LearnWithComm(rc rank.Context, q *score.QData, kern *score.Kernel, modules [][]int,
	trees [][]*tree.Tree, par Params, g *prng.MRG3) Result {
	c := rc.Comm
	ev := newEvaluator(rc, q, kern, modules, trees, par, g)
	var spans []span
	var steps []int
	if chunk := ev.par.DynamicChunk; chunk > 0 && c.Size() > 1 {
		next := comm.NewCounter(c)
		for k := next.Next(c); ev.chunkStart(chunk, k) < ev.total; k = next.Next(c) {
			lo := ev.chunkStart(chunk, k)
			post, s, _ := ev.eval(lo, ev.chunkStart(chunk, k+1))
			spans = append(spans, newSpan(lo, post))
			steps = append(steps, s...)
		}
		ev.recordMetrics(rc.Hooks.Registry(), steps)
	} else {
		lo, hi := comm.BlockRange(ev.total, c.Size(), c.Rank())
		post, s, st := ev.eval(lo, hi)
		ev.observe(st, s)
		spans, steps = []span{newSpan(lo, post)}, s
	}
	res := selectScan(c, q, ev.nodes, spans, ev.par, g)
	ev.recordWork(steps, res)
	return res
}

// Learn is LearnWithComm on the one-rank world with a kernel of its own for
// pr, sized to the largest module's blocks, recording the per-candidate
// costs into wl when non-nil.
func Learn(q *score.QData, pr score.Prior, modules [][]int, trees [][]*tree.Tree,
	par Params, g *prng.MRG3, wl *trace.Workload) Result {
	vars := 0
	for _, mod := range modules {
		vars = max(vars, len(mod))
	}
	return LearnWithComm(rank.Self(wl), q, score.NewKernel(pr, vars*q.M), modules, trees, par, g)
}

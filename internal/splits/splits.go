// Package splits implements the parent-split assignment phase of the
// module-learning task (§2.2.3 step 2, Algorithm 5 of the paper) — the phase
// that accounts for more than 90 % of the sequential run time and whose
// variable per-split cost causes the load imbalance analyzed in §5.3.1.
//
// Every combination ⟨module Mᵢ, tree T, internal node N, candidate parent
// Xᵢ, observation Dⱼ at N⟩ is a candidate split. Its posterior — the
// probability that splitting N's observations on Xᵢ ≤ Dᵢⱼ improves the
// Bayesian score — is estimated by bootstrap resampling with early
// termination: at least MinSteps and at most MaxSteps resamples of the
// node's observations, each costing O(|N|) work, stopping once the estimate
// is confidently resolved. Clear splits resolve in MinSteps; ambiguous ones
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

	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/trace"
	"parsimone/internal/tree"
)

// Params configures split assignment.
//
// # Zero-value sentinels
//
// The zero value of every field selects its documented default — an
// *explicit* zero cannot be configured. Count fields (NumSplits, MaxSteps,
// MinSteps) treat any value ≤ 0 as "use the default": a negative count is
// never meaningful, and silently accepting one would make the evaluator run
// zero bootstrap steps and divide by zero. For CIHalfWidth a negative
// value IS meaningful and is honored: it disables early termination, so
// every split runs to MaxSteps (the half-width test `hw < CIHalfWidth`
// can then never pass). TestParamsWithDefaults pins all of this.
type Params struct {
	// NumSplits is J: how many weighted and how many uniform splits are
	// chosen per node. Values ≤ 0 select the default, 2.
	NumSplits int
	// MaxSteps is S, the bootstrap resampling cap per split; MinSteps the
	// floor before early termination is allowed. Values ≤ 0 select the
	// defaults, 64 and 8.
	MaxSteps, MinSteps int
	// CIHalfWidth is the normal-approximation confidence half-width below
	// which sampling stops early. 0 selects the default, 0.08; a negative
	// value disables early termination entirely.
	CIHalfWidth float64
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

// WithDefaults returns p with every unset field replaced by its documented
// default, for a data set of n variables.
func (p Params) WithDefaults(n int) Params {
	if p.NumSplits <= 0 {
		p.NumSplits = 2
	}
	if p.MaxSteps <= 0 {
		p.MaxSteps = 64
	}
	if p.MinSteps <= 0 {
		p.MinSteps = 8
	}
	//parsivet:floateq — zero-value sentinel for "option unset", never a computed float
	if p.CIHalfWidth == 0 {
		p.CIHalfWidth = 0.08
	}
	if p.Candidates == nil {
		p.Candidates = make([]int, n)
		for i := range p.Candidates {
			p.Candidates[i] = i
		}
	}
	return p
}

// Validate reports configuration errors withDefaults cannot repair. A
// non-nil empty Candidates slice is rejected: nil means "all variables",
// but an explicitly empty candidate-parent list enumerates zero candidate
// splits and silently yields an empty Result with no diagnostic. Core
// Options validation and the parsimone CLI surface this before any
// learning runs.
func (p Params) Validate() error {
	if p.Candidates != nil && len(p.Candidates) == 0 {
		return fmt.Errorf("splits: Candidates must be nil (all variables) or non-empty — an empty list yields zero candidate splits and an empty Result")
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

// selectSplits performs the per-node selection over the full posterior
// vector: J weighted + J uniform picks over the retained (non-zero
// posterior) candidates per node, in canonical node order, consuming the
// shared stream identically on every rank. It is the selection of a one-rank
// world, and the reference the segmented scan reproduces without the vector.
func selectSplits(q *score.QData, nodes []*nodeRef, posteriors []float64, par Params, g *prng.MRG3) Result {
	var res Result
	for _, ref := range nodes {
		ps := posteriors[ref.offset : ref.offset+ref.count]
		weights := make([]uint64, len(ps))
		var retained []int
		for i, p := range ps {
			// score.QuantizeProb, not an ad-hoc rounding: a retained
			// (positive-posterior) candidate must map to a positive weight
			// or WeightedIndex could face an all-zero vector and return -1.
			weights[i] = score.QuantizeProb(p)
			if p > 0 {
				retained = append(retained, i)
			}
		}
		if len(retained) == 0 {
			continue
		}
		mk := func(local int) Assigned { return ref.assigned(q, par.Candidates, local, ps[local]) }
		for s := 0; s < par.NumSplits; s++ {
			wi := g.WeightedIndex(weights)
			res.Weighted = append(res.Weighted, mk(wi))
		}
		for s := 0; s < par.NumSplits; s++ {
			ui := retained[g.Intn(len(retained))]
			res.Uniform = append(res.Uniform, mk(ui))
		}
	}
	return res
}

// LearnWithComm computes posteriors over the ranks of rc's world and selects
// splits identically on every rank. A world of more than one rank scores
// fine-grained static blocks (Algorithm 5 line 5), or, when par.DynamicChunk
// is set, chunks it takes from a shared counter, and selects with the
// paper's segmented scan either way (scan.go). A one-rank world has nobody
// to exchange with: it scores the whole list, records its work and selects
// on its own posterior vector. Each rank's share is fanned over its rc.Workers
// pool workers. Posteriors, trace items and the selected splits are
// bit-identical for every (rank count, W, exchange): each pair draws only
// from its own numbered substream and each candidate writes only its own
// slot. No cancellation check is polled here: a module's splits are
// recomputed wholesale on resume, so the module edge is the granularity.
func LearnWithComm(rc rank.Context, q *score.QData, kern *score.Kernel, modules [][]int,
	trees [][]*tree.Tree, par Params, g *prng.MRG3) Result {
	if rc.Comm.Size() > 1 {
		return learnRanks(rc, q, kern, modules, trees, par, g)
	}
	ev := newEvaluator(rc, q, kern, modules, trees, par, g)
	post, steps, st := ev.eval(0, ev.total)
	ev.observe(st, steps)
	res := selectSplits(q, ev.nodes, post, ev.par, g)
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

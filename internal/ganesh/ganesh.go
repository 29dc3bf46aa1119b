// Package ganesh implements the GaneSH Gibbs-sampler co-clustering task of
// Lemon-Tree (Joshi et al. 2008; §2.2.1 and Algorithms 1–3 of the paper) as
// one distributed-memory implementation whose result is bit-identical on
// every world; a sequential run is the one-rank world (DESIGN §20).
//
// Each update step performs four sweeps: n variable reassignments, a
// variable-cluster merge pass, and — per variable cluster — m observation
// reassignments and an observation-cluster merge pass. Every individual
// decision is a collective weighted random choice over score gains. The
// candidate evaluations of a decision are partitioned over ranks
// (Algorithms 1–2) and the gains all-gathered — when the decision outweighs
// the message (trace.Distributed, DESIGN §19); a cheaper one every rank
// evaluates in full, which yields the same gains because they are functions
// of replicated state. Either way every rank then draws the same choice from
// the replicated PRNG stream; state transitions are applied redundantly on
// all ranks, so the clustering state never needs to be communicated.
package ganesh

import (
	"slices"

	"parsimone/internal/cluster"
	"parsimone/internal/comm"
	"parsimone/internal/pool"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/trace"
)

// Params configures a GaneSH run.
type Params struct {
	// InitVarClusters is K₀, the initial number of variable clusters;
	// 0 means n/2, the Lemon-Tree default.
	InitVarClusters int
	// InitObsClusters is the initial number of observation clusters per
	// variable cluster; 0 means ⌈√m⌉, the Lemon-Tree default.
	InitObsClusters int
	// Updates is U, the number of update steps.
	Updates int
}

func (p Params) withDefaults(n, m int) Params {
	if p.InitVarClusters == 0 {
		p.InitVarClusters = max(1, n/2)
	}
	if p.InitObsClusters == 0 {
		p.InitObsClusters = defaultObsClusters(m)
	}
	if p.Updates == 0 {
		p.Updates = 1
	}
	return p
}

// defaultObsClusters is ⌈√m⌉, the Lemon-Tree default initial number of
// observation clusters.
func defaultObsClusters(m int) int {
	c := 1
	for c*c < m {
		c++
	}
	return c
}

// Phase names used for work recording.
const (
	PhaseVarReassign = "ganesh/var-reassign"
	PhaseVarMerge    = "ganesh/var-merge"
	PhaseObsReassign = "ganesh/obs-reassign"
	PhaseObsMerge    = "ganesh/obs-merge"
)

// gainsChunk is the pool chunk size for gain evaluations, which are much
// cheaper than split posteriors; small chunks keep the round-robin deal
// balanced over the short candidate lists of one decision.
const gainsChunk = 8

// evalFunc stores the gains of candidates lo … lo+len(out)−1 in out,
// scoring their blocks in one batch through b (a cluster.Gains* call).
type evalFunc func(b *cluster.Batch, lo int, out []float64)

// engine runs the sampler on one rank. Of the rank's hooks it feeds the
// decision accounting only (the sampler makes thousands of decisions per
// update step, so it never emits per-decision events) and polls the
// cancellation signal once per update step — before any PRNG draw of the
// step, so a check never perturbs the substream schedule.
type engine struct {
	rc rank.Context
	q  *score.QData
	// kern is the rank's scoring kernel, which the clustering state scores
	// every block through; its prior is the score's.
	kern *score.Kernel
	g    *prng.MRG3
	// gains and weights are the decision scratch: one decision's candidate
	// gains and their quantized weights, grown to the widest decision seen.
	gains   []float64
	weights []uint64
	// batches holds one block batch per pool worker; a decision evaluated
	// inline uses the first.
	batches []*cluster.Batch
	// beforeGains, when non-nil, runs at every decision before its gains
	// are evaluated, with the decision's candidate count, cost function and
	// branch: a test's view of every decision, between every two mutations.
	beforeGains func(count int, itemCost func(int) float64, distributed bool)
}

// newEngine builds an engine scoring through kern.
func newEngine(rc rank.Context, q *score.QData, kern *score.Kernel, g *prng.MRG3) *engine {
	e := &engine{rc: rc, q: q, kern: kern, g: g, batches: make([]*cluster.Batch, max(1, rc.Workers))}
	for w := range e.batches {
		e.batches[w] = &cluster.Batch{}
	}
	return e
}

// decide evaluates count candidate gains, accounts the decision, converts
// gains to quantized weights, and draws the collective weighted choice.
// itemCost(i) reports the deterministic cost of evaluating candidate i; the
// decision is distributed only when the costs sum to trace.Distributed
// (DESIGN §19). The sum is a replicated value, so every rank and every p×W
// takes the same branch and draws from the same weights.
func (e *engine) decide(phaseName string, count int, eval evalFunc, itemCost func(int) float64) int {
	if cap(e.gains) < count {
		e.gains, e.weights = make([]float64, count), make([]uint64, count)
	}
	gains := e.gains[:count]
	// One unaccounted goroutine has nobody to tell the cost to.
	var total float64
	if e.rc.Comm.Size()*max(1, e.rc.Workers) > 1 || e.rc.Hooks != nil {
		for i := 0; i < count; i++ {
			total += itemCost(i)
		}
	}
	distributed := trace.Distributed(total)
	if e.beforeGains != nil {
		e.beforeGains(count, itemCost, distributed)
	}
	st := e.evaluate(gains, distributed, eval, itemCost)
	e.rc.Hooks.Decision(phaseName, count, itemCost, total, int64(count), st) // words: the gains all-gather
	s := e.g.WeightedIndex(score.QuantizeWeightsInto(e.weights[:count], gains))
	if s < 0 {
		// All gains were −Inf/NaN, which finite statistics cannot
		// produce; fall back to the last candidate (retain/new).
		s = count - 1
	}
	return s
}

// evaluate stores every candidate's gain in out. A decision that is not
// distributed is one batch over all candidates on the calling goroutine of
// every rank — the gains are pure functions of the replicated clustering
// state, so every rank computes the same vector bit for bit — with no
// message, no spawn and zero Stats. A distributed one is block-partitioned
// over the ranks, each rank's block dealt over its pool workers one batch
// per chunk, and the gains all-gathered; it returns the pool counters of
// this rank's share, weighted by cost(i).
func (e *engine) evaluate(out []float64, distributed bool, eval evalFunc, cost func(int) float64) pool.Stats {
	if !distributed {
		eval(e.batches[0], 0, out)
		return pool.Stats{}
	}
	c := e.rc.Comm
	lo, hi := comm.BlockRange(len(out), c.Size(), c.Rank())
	local := out[lo:hi]
	// The pool hands each worker whole chunks of gainsChunk items, in
	// ascending order, so a chunk's first item stands for the chunk: that
	// call scores the whole chunk in one batch. When one worker takes the
	// whole block, the block is one batch.
	n := hi - lo
	span := gainsChunk
	if e.rc.Workers <= 1 || n <= gainsChunk {
		span = n
	}
	st := pool.For(n, e.rc.Workers, gainsChunk, func(k, w int) float64 {
		if k%span == 0 {
			eval(e.batches[w], lo+k, local[k:min(k+span, n)])
		}
		return cost(lo + k)
	})
	// Peers may still read the sent block after the all-gather returns
	// here, and the next decision overwrites out: send a copy.
	copy(out, comm.AllGatherv(c, slices.Clone(local)))
	return st
}

// reassignVars performs the n variable-reassignment iterations of
// Algorithm 1 (Reassign-Var-Cluster).
func (e *engine) reassignVars(cc *cluster.CoClustering) {
	n := e.q.N
	for it := 0; it < n; it++ {
		r := e.g.Intn(n)
		cc.DetachVar(r)
		k := len(cc.Clusters)
		cost := func(i int) float64 {
			l := 1
			if i < k {
				l = len(cc.Clusters[i].Clusters)
			}
			return float64(e.q.M + trace.LogMLCost*2*l)
		}
		s := e.decide(PhaseVarReassign, k+1,
			func(b *cluster.Batch, lo int, out []float64) { cc.GainsAttachVar(b, r, lo, out) }, cost)
		cc.AttachVar(r, s)
		e.rc.Hooks.Serial(PhaseVarReassign, float64(2*e.q.M))
	}
}

// mergeVars performs the variable-cluster merge pass of Algorithm 1
// (Merge-Var-Cluster). Cluster i is merged into the chosen cluster or
// retained; after a merge the list shrinks and index i is revisited.
func (e *engine) mergeVars(cc *cluster.CoClustering) {
	for i := 0; i < len(cc.Clusters); {
		cols := cc.VarColumnStats(i)
		e.rc.Hooks.Serial(PhaseVarMerge, float64(len(cc.Clusters[i].Vars)*e.q.M))
		k := len(cc.Clusters)
		srcL := len(cc.Clusters[i].Clusters)
		cost := func(j int) float64 {
			if j == i {
				return 1
			}
			return float64(e.q.M + trace.LogMLCost*(2*len(cc.Clusters[j].Clusters)+srcL))
		}
		s := e.decide(PhaseVarMerge, k,
			func(b *cluster.Batch, lo int, out []float64) { cc.GainsMergeVar(b, cols, i, lo, out) }, cost)
		if s != i {
			cc.MergeVar(i, s)
			// The list shifted; position i now holds the next cluster.
		} else {
			i++
		}
	}
}

// ReassignObs performs the m observation-reassignment iterations of
// Algorithm 2 (Reassign-Obs-Cluster) on one observation partition. Exported
// because the module-learning task (Algorithm 4) reuses it with the variable
// clusters pinned.
func (e *engine) reassignObs(oc *cluster.ObsClusters) {
	m := e.q.M
	nv := len(oc.Vars)
	for it := 0; it < m; it++ {
		r := e.g.Intn(m)
		col := oc.DetachObs(r)
		l := len(oc.Clusters)
		s := e.decide(PhaseObsReassign, l+1,
			func(b *cluster.Batch, lo int, out []float64) { oc.GainsAttachObs(b, col, lo, out) },
			func(int) float64 { return 2 * trace.LogMLCost })
		oc.AttachObs(r, s)
		e.rc.Hooks.Serial(PhaseObsReassign, float64(2*nv))
	}
}

// mergeObs performs the observation-cluster merge pass of Algorithm 2
// (Merge-Obs-Cluster) on one observation partition.
func (e *engine) mergeObs(oc *cluster.ObsClusters) {
	for i := 0; i < len(oc.Clusters); {
		l := len(oc.Clusters)
		s := e.decide(PhaseObsMerge, l,
			func(b *cluster.Batch, lo int, out []float64) { oc.GainsMergeObs(b, i, lo, out) },
			func(int) float64 { return 3 * trace.LogMLCost })
		if s != i {
			oc.MergeObs(i, s)
		} else {
			i++
		}
	}
}

// run executes Algorithm 3: random initialization followed by U update
// steps.
func (e *engine) run(par Params) *cluster.CoClustering {
	par = par.withDefaults(e.q.N, e.q.M)
	cc := cluster.NewRandomCoClustering(e.q, e.kern, par.InitVarClusters, par.InitObsClusters, e.g)
	for u := 0; u < par.Updates; u++ {
		e.rc.Cancel.Check()
		e.step(cc)
	}
	return cc
}

// step performs one update step of Algorithm 3: the two variable sweeps,
// then the two observation sweeps of every variable cluster.
func (e *engine) step(cc *cluster.CoClustering) {
	e.reassignVars(cc)
	e.mergeVars(cc)
	for vi := 0; vi < len(cc.Clusters); vi++ {
		e.reassignObs(cc.Clusters[vi])
		e.mergeObs(cc.Clusters[vi])
	}
}

// RunWithComm executes one GaneSH run across the ranks of rc's world and
// returns the final co-clustering, scored through kern (whose prior is the
// score's; a table of q.N·q.M counts covers every block). Every rank must
// pass a PRNG in the same state; every rank returns an identical
// co-clustering, bit-equal for every world size and worker count: the
// Gains* evaluations are read-only on the clustering state and each writes
// only its own gains slots.
func RunWithComm(rc rank.Context, q *score.QData, kern *score.Kernel, par Params, g *prng.MRG3) *cluster.CoClustering {
	return newEngine(rc, q, kern, g).run(par)
}

// Run is RunWithComm on the one-rank world with a kernel of its own for pr,
// recording into wl when non-nil.
func Run(q *score.QData, pr score.Prior, par Params, g *prng.MRG3, wl *trace.Workload) *cluster.CoClustering {
	return RunWithComm(rank.Self(wl), q, score.NewKernel(pr, q.N*q.M), par, g)
}

// ObsParams configures the observation-only sampler used by the
// module-learning task (Algorithm 4, lines 3–9).
type ObsParams struct {
	// InitObsClusters as in Params.
	InitObsClusters int
	// Updates is U, the number of update steps; Burnin is B, the number
	// of initial steps whose states are discarded.
	Updates, Burnin int
}

func (p ObsParams) withDefaults(m int) ObsParams {
	if p.InitObsClusters == 0 {
		p.InitObsClusters = defaultObsClusters(m)
	}
	if p.Updates == 0 {
		p.Updates = 1
	}
	return p
}

// SampleObsClusteringsWithComm runs GaneSH constrained to a single pinned
// variable cluster (the module's variables) across the ranks of rc's world,
// scored through kern, and returns the observation clusterings sampled
// after burn-in — one snapshot per post-burn-in update step — plus the final
// partition state; identical on every rank.
func SampleObsClusteringsWithComm(rc rank.Context, q *score.QData, kern *score.Kernel, vars []int, par ObsParams, g *prng.MRG3) ([][][]int, *cluster.ObsClusters) {
	return sampleObs(newEngine(rc, q, kern, g), vars, par)
}

// SampleObsClusterings is SampleObsClusteringsWithComm on the one-rank world
// with a kernel of its own for pr, sized to the module's blocks, recording
// into wl when non-nil.
func SampleObsClusterings(q *score.QData, pr score.Prior, vars []int, par ObsParams, g *prng.MRG3, wl *trace.Workload) ([][][]int, *cluster.ObsClusters) {
	return SampleObsClusteringsWithComm(rank.Self(wl), q, score.NewKernel(pr, len(vars)*q.M), vars, par, g)
}

func sampleObs(e *engine, vars []int, par ObsParams) ([][][]int, *cluster.ObsClusters) {
	par = par.withDefaults(e.q.M)
	oc := cluster.NewRandomObsClusters(e.q, e.kern, vars, par.InitObsClusters, e.g)
	var samples [][][]int
	for u := 1; u <= par.Updates; u++ {
		e.rc.Cancel.Check()
		e.reassignObs(oc)
		e.mergeObs(oc)
		if u > par.Burnin {
			samples = append(samples, oc.Snapshot())
		}
	}
	return samples, oc
}

// CoOccurrence accumulates an ensemble of variable-partition snapshots into
// the n×n co-occurrence frequency matrix of the consensus task (§2.2.2):
// entry (i,j) is the fraction of sampled clusterings in which variables i
// and j share a cluster. Entries below threshold are zeroed.
//
// The pairs are counted exactly (integer counts, held in the matrix itself).
// An entry of count c is kept iff its exact frequency, the correctly rounded
// c/G, is at least the threshold, and then holds v[c], where v[0] = 0 and
// v[c] = v[c−1] + 1/G — the bits of c float additions of 1/G — clamped to 1.
// The decision is not taken on v[c], which can round below c/G: at G = 10,
// v[9] is 0.8999999999999999, and v[G] is 1 − ulp for G ∈ {6, 7, 10, …}.
func CoOccurrence(n int, ensembles [][][]int, threshold float64) []float64 {
	a := make([]float64, n*n)
	if len(ensembles) == 0 {
		return a
	}
	for _, snap := range ensembles {
		for _, cl := range snap {
			for _, i := range cl {
				for _, j := range cl {
					a[i*n+j]++
				}
			}
		}
	}
	g := len(ensembles)
	value := make([]float64, g+1)
	inc := 1 / float64(g)
	var v float64
	for c := 1; c <= g; c++ {
		v += inc
		if float64(c)/float64(g) >= threshold {
			value[c] = min(v, 1)
		}
	}
	for i, c := range a {
		a[i] = value[int(c)]
	}
	return a
}

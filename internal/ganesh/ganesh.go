// Package ganesh implements the GaneSH Gibbs-sampler co-clustering task of
// Lemon-Tree (Joshi et al. 2008; §2.2.1 and Algorithms 1–3 of the paper) as
// one distributed-memory implementation whose result is bit-identical on
// every world; a sequential run is the one-rank world (DESIGN §20).
//
// Each update step performs four sweeps: n variable reassignments, a
// variable-cluster merge pass, and — per variable cluster — m observation
// reassignments and an observation-cluster merge pass. Every individual
// decision is a collective weighted random choice over score gains, scored
// by the rank's one decision executor (rank.Context.Evaluate, DESIGN §19):
// partitioned over ranks (Algorithms 1–2) and the gains all-gathered when
// the decision outweighs the message, evaluated in full on every rank
// otherwise, which yields the same gains because they are functions of
// replicated state. Either way every rank then draws the same choice from
// the replicated PRNG stream; state transitions are applied redundantly on
// all ranks, so the clustering state never needs to be communicated.
package ganesh

import (
	"parsimone/internal/cluster"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/trace"
)

// Params configures a GaneSH run.
type Params struct {
	// Updates is U, the number of update steps; 0 means 1.
	Updates int
}

func (p Params) withDefaults() Params {
	if p.Updates == 0 {
		p.Updates = 1
	}
	return p
}

// initVarClusters is K₀ = max(1, n/2), Lemon-Tree's initial number of
// variable clusters over n variables.
func initVarClusters(n int) int { return max(1, n/2) }

// initObsClusters is L₀ = ⌈√m⌉, Lemon-Tree's initial number of observation
// clusters per variable cluster over m observations.
func initObsClusters(m int) int {
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
	// are evaluated, with the decision's candidate count and cost function:
	// a test's view of every decision, between every two mutations.
	beforeGains func(count int, itemCost func(int) float64)
}

// newEngine builds an engine scoring through kern.
func newEngine(rc rank.Context, q *score.QData, kern *score.Kernel, g *prng.MRG3) *engine {
	e := &engine{rc: rc, q: q, kern: kern, g: g, batches: make([]*cluster.Batch, max(1, rc.Workers))}
	for w := range e.batches {
		e.batches[w] = &cluster.Batch{}
	}
	return e
}

// decide scores count candidates through the rank's one decision executor
// (rank.Context.Evaluate, DESIGN §19), converts their gains to quantized
// weights, and draws the collective weighted choice. eval stores the gains
// of candidates lo … lo+len(out)−1 in out, one batch through pool worker
// w's batch (a cluster.Gains* call); itemCost(i) is the deterministic cost
// of evaluating candidate i. The gains are pure functions of the replicated
// clustering state, so every rank draws the same choice from the same
// weights.
func (e *engine) decide(phaseName string, count int, eval func(w, lo int, out []float64), itemCost func(int) float64) int {
	if cap(e.gains) < count {
		e.gains, e.weights = make([]float64, count), make([]uint64, count)
	}
	gains := e.gains[:count]
	if e.beforeGains != nil {
		e.beforeGains(count, itemCost)
	}
	e.rc.Evaluate(phaseName, gains, itemCost, eval)
	s := e.g.WeightedIndex(score.QuantizeWeightsInto(e.weights[:count], gains))
	if s < 0 {
		// All gains were −Inf/NaN, which finite statistics cannot
		// produce; fall back to the last candidate (retain/new).
		s = count - 1
	}
	return s
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
			func(w, lo int, out []float64) { cc.GainsAttachVar(e.batches[w], r, lo, out) }, cost)
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
			func(w, lo int, out []float64) { cc.GainsMergeVar(e.batches[w], cols, i, lo, out) }, cost)
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
			func(w, lo int, out []float64) { oc.GainsAttachObs(e.batches[w], col, lo, out) },
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
			func(w, lo int, out []float64) { oc.GainsMergeObs(e.batches[w], i, lo, out) },
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
	par = par.withDefaults()
	cc := cluster.NewRandomCoClustering(e.q, e.kern, initVarClusters(e.q.N), initObsClusters(e.q.M), e.g)
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
	// Updates is U, the number of update steps; Burnin is B, the number
	// of initial steps whose states are discarded.
	Updates, Burnin int
}

func (p ObsParams) withDefaults() ObsParams {
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
	par = par.withDefaults()
	oc := cluster.NewRandomObsClusters(e.q, e.kern, vars, initObsClusters(e.q.M), e.g)
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

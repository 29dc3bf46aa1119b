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
	"slices"

	"parsimone/internal/cluster"
	"parsimone/internal/matrix"
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
	// cols is the merge-var decisions' column statistics, reused.
	cols []score.Stats
	// cur is the decision in progress, which the eval and cost functions
	// read. They are bound once, in newEngine, so that a decision allocates
	// no closure.
	cur                                                      decision
	attachVarEval, mergeVarEval, attachObsEval, mergeObsEval func(w, lo int, out []float64)
	attachVarCost, mergeVarCost                              func(int) float64
	// beforeGains, when non-nil, runs at every decision before its gains
	// are evaluated, with the decision's candidate count and cost function:
	// a test's view of every decision, between every two mutations.
	beforeGains func(count int, itemCost func(int) float64)
}

// decision is what a decision's eval and cost functions read: the state it
// scores, the variable, observation or cluster it places (x), the
// candidate count k of an attach-var decision, the detached observation's
// column statistics and the merge source's obs-cluster count.
type decision struct {
	cc      *cluster.CoClustering
	oc      *cluster.ObsClusters
	x, k    int
	col     score.Stats
	srcObsK int
}

// newEngine builds an engine scoring through kern.
func newEngine(rc rank.Context, q *score.QData, kern *score.Kernel, g *prng.MRG3) *engine {
	e := &engine{rc: rc, q: q, kern: kern, g: g, batches: make([]*cluster.Batch, max(1, rc.Workers))}
	for w := range e.batches {
		e.batches[w] = &cluster.Batch{}
	}
	e.attachVarEval = func(w, lo int, out []float64) { e.cur.cc.GainsAttachVar(e.batches[w], e.cur.x, lo, out) }
	e.mergeVarEval = func(w, lo int, out []float64) { e.cur.cc.GainsMergeVar(e.batches[w], e.cols, e.cur.x, lo, out) }
	e.attachObsEval = func(w, lo int, out []float64) { e.cur.oc.GainsAttachObs(e.batches[w], e.cur.col, lo, out) }
	e.mergeObsEval = func(w, lo int, out []float64) { e.cur.oc.GainsMergeObs(e.batches[w], e.cur.x, lo, out) }
	e.attachVarCost = func(i int) float64 {
		l := 1
		if i < e.cur.k {
			l = len(e.cur.cc.Clusters[i].Clusters)
		}
		return float64(e.q.M + trace.LogMLCost*2*l)
	}
	e.mergeVarCost = func(j int) float64 {
		if j == e.cur.x {
			return 1
		}
		return float64(e.q.M + trace.LogMLCost*(2*len(e.cur.cc.Clusters[j].Clusters)+e.cur.srcObsK))
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
		e.cur = decision{cc: cc, x: r, k: k}
		s := e.decide(PhaseVarReassign, k+1, e.attachVarEval, e.attachVarCost)
		cc.AttachVar(r, s)
		e.rc.Hooks.Serial(PhaseVarReassign, float64(2*e.q.M))
	}
}

// mergeVars performs the variable-cluster merge pass of Algorithm 1
// (Merge-Var-Cluster). Cluster i is merged into the chosen cluster or
// retained; after a merge the list shrinks and index i is revisited.
func (e *engine) mergeVars(cc *cluster.CoClustering) {
	for i := 0; i < len(cc.Clusters); {
		e.cols = cc.VarColumnStats(e.cols, i)
		e.rc.Hooks.Serial(PhaseVarMerge, float64(len(cc.Clusters[i].Vars)*e.q.M))
		e.cur = decision{cc: cc, x: i, srcObsK: len(cc.Clusters[i].Clusters)}
		s := e.decide(PhaseVarMerge, len(cc.Clusters), e.mergeVarEval, e.mergeVarCost)
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
		e.cur = decision{oc: oc, col: col}
		s := e.decide(PhaseObsReassign, l+1, e.attachObsEval, attachObsCost)
		oc.AttachObs(r, s)
		e.rc.Hooks.Serial(PhaseObsReassign, float64(2*nv))
	}
}

// mergeObs performs the observation-cluster merge pass of Algorithm 2
// (Merge-Obs-Cluster) on one observation partition.
func (e *engine) mergeObs(oc *cluster.ObsClusters) {
	for i := 0; i < len(oc.Clusters); {
		e.cur = decision{oc: oc, x: i}
		s := e.decide(PhaseObsMerge, len(oc.Clusters), e.mergeObsEval, mergeObsCost)
		if s != i {
			oc.MergeObs(i, s)
		} else {
			i++
		}
	}
}

// The costs of scoring one candidate of an obs decision: two block scores
// to attach an observation, three to merge two obs clusters.
func attachObsCost(int) float64 { return 2 * trace.LogMLCost }
func mergeObsCost(int) float64  { return 3 * trace.LogMLCost }

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
	value := coValues(len(ensembles), threshold)
	for i, c := range a {
		a[i] = value[int(c)]
	}
	return a
}

// coValues is the co-occurrence value of each count c ∈ [0, g] under
// threshold, as CoOccurrence documents it.
func coValues(g int, threshold float64) []float64 {
	value := make([]float64, g+1)
	inc := 1 / float64(g)
	var v float64
	for c := 1; c <= g; c++ {
		v += inc
		if float64(c)/float64(g) >= threshold {
			value[c] = min(v, 1)
		}
	}
	return value
}

// CoOccurrenceCSR is CoOccurrence's matrix built sparse, straight from the
// snapshots, with no n×n buffer: the same cells, every positive one stored
// in a matrix.CSR. Row i merges i's cluster of every snapshot; the lists
// are ascending, so the merge visits the co-members in ascending column
// order and needs no sort, and a column's count is the number of lists it
// heads. The count maps through CoOccurrence's value table. The cost is
// Σ|cluster|² over the snapshots (times the number of lists a merge step
// compares) and the memory O(nnz + G·n).
//
// Each snapshot lists every variable in [0, n) at most once, as
// cluster.VarSnapshot writes it; a variable absent from a snapshot shares
// no cluster in it. A cluster whose members are not ascending is merged
// from a sorted copy.
func CoOccurrenceCSR(n int, ensembles [][][]int, threshold float64) *matrix.CSR {
	s := &matrix.CSR{N: n, RowPtr: make([]int, n+1)}
	g := len(ensembles)
	if g == 0 {
		return s
	}
	value := coValues(g, threshold)
	// of[r·n+i] is the index of variable i's cluster in snapshot r, −1 if
	// the snapshot leaves i out.
	of := make([]int32, g*n)
	for i := range of {
		of[i] = -1
	}
	snaps := slices.Clone(ensembles)
	for r, snap := range ensembles {
		copied := false
		for c, cl := range snap {
			for _, i := range cl {
				of[r*n+i] = int32(c)
			}
			if !slices.IsSorted(cl) {
				if !copied {
					snaps[r], copied = slices.Clone(snap), true
				}
				snaps[r][c] = slices.Clone(cl)
				slices.Sort(snaps[r][c])
			}
		}
	}
	lists := make([][]int, 0, g)
	for i := 0; i < n; i++ {
		lists = lists[:0]
		for r, snap := range snaps {
			if c := of[r*n+i]; c >= 0 {
				lists = append(lists, snap[c])
			}
		}
		for len(lists) > 0 {
			j := lists[0][0]
			for _, l := range lists[1:] {
				j = min(j, l[0])
			}
			count, kept := 0, lists[:0]
			for _, l := range lists {
				if l[0] == j {
					count++
					l = l[1:]
				}
				if len(l) > 0 {
					kept = append(kept, l)
				}
			}
			lists = kept
			if v := value[count]; v > 0 {
				s.Col = append(s.Col, j)
				s.Val = append(s.Val, v)
			}
		}
		s.RowPtr[i+1] = len(s.Col)
	}
	return s
}

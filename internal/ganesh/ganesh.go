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
		c := 1
		for c*c < m {
			c++
		}
		p.InitObsClusters = c
	}
	if p.Updates == 0 {
		p.Updates = 1
	}
	return p
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

// executor is where a decision's candidate gains are computed. The engines
// run on commExec; the interface exists so a test can wrap it and check the
// clustering state between every two mutations. An implementation must leave
// exactly the same gains vector on every rank.
type executor interface {
	// width is the number of goroutines a distributed decision's evaluations
	// are spread over (ranks × workers); at 1 there is nothing to distribute.
	width() int
	// gains stores eval(i) in out[i] for every i. A distributed decision
	// (trace.Distributed of its total cost) is spread over the ranks and
	// workers and returns the pool counters of this rank's share, weighted
	// by cost(i); any other is evaluated inline on the calling goroutine of
	// every rank, with no message, no spawn and zero Stats.
	gains(out []float64, distributed bool, eval func(int) float64, cost func(int) float64) pool.Stats
}

// commExec block-partitions a distributed decision over c's ranks, fans each
// block over the intra-rank worker pool and all-gathers the gains.
type commExec struct {
	c       *comm.Comm
	workers int
}

func (e commExec) width() int { return e.c.Size() * max(1, e.workers) }

func (e commExec) gains(out []float64, distributed bool, eval func(int) float64, cost func(int) float64) pool.Stats {
	if !distributed {
		// Gains are pure functions of the replicated clustering state, so
		// every rank computes the same vector bit for bit.
		for i := range out {
			out[i] = eval(i)
		}
		return pool.Stats{}
	}
	lo, hi := comm.BlockRange(len(out), e.c.Size(), e.c.Rank())
	local := out[lo:hi]
	st := pool.For(hi-lo, e.workers, gainsChunk, func(k, w int) float64 {
		local[k] = eval(lo + k)
		return cost(lo + k)
	})
	// local is this rank's send buffer: overwritten only here, after the
	// broadcast that follows the root's read of every block.
	copy(out, comm.AllGatherv(e.c, local))
	return st
}

// engine runs the sampler on one rank. Of the rank's hooks it feeds the
// decision accounting only (the sampler makes thousands of decisions per
// update step, so it never emits per-decision events) and polls the
// cancellation signal once per update step — before any PRNG draw of the
// step, so a check never perturbs the substream schedule.
type engine struct {
	rc    rank.Context
	q     *score.QData
	prior score.Prior
	// kern is the precomputed scoring kernel of prior, attached to the
	// clustering state so every gain evaluation hits the tables. A Gibbs
	// block never exceeds the variables the engine samples over times the m
	// observations, so the table is sized to that and never falls back.
	kern *score.Kernel
	g    *prng.MRG3
	ex   executor
	// gains and weights are the decision scratch: one decision's candidate
	// gains and their quantized weights, grown to the widest decision seen.
	gains   []float64
	weights []uint64
}

// newEngine builds an engine whose blocks span at most nVars variables: all
// q.N for a co-clustering run, the pinned module's for the observation-only
// sampler, which runs once per module and would otherwise fill a table
// q.N/nVars times longer than any count it can ask for.
func newEngine(rc rank.Context, q *score.QData, pr score.Prior, nVars int, g *prng.MRG3) *engine {
	return &engine{rc: rc, q: q, prior: pr, kern: score.NewKernel(pr, nVars*q.M),
		g: g, ex: commExec{c: rc.Comm, workers: rc.Workers}}
}

// decide evaluates count candidate gains through the executor, accounts the
// decision, converts gains to quantized weights, and draws the collective
// weighted choice. itemCost(i) reports the deterministic cost of evaluating
// candidate i; the decision is distributed only when the costs sum to
// trace.Distributed (DESIGN §19). The sum is a replicated value, so every
// rank and every p×W takes the same branch and draws from the same weights.
func (e *engine) decide(phaseName string, count int, eval func(int) float64, itemCost func(int) float64) int {
	if cap(e.gains) < count {
		e.gains, e.weights = make([]float64, count), make([]uint64, count)
	}
	gains := e.gains[:count]
	// One unaccounted goroutine has nobody to tell the cost to.
	var total float64
	if e.ex.width() > 1 || e.rc.Hooks != nil {
		for i := 0; i < count; i++ {
			total += itemCost(i)
		}
	}
	st := e.ex.gains(gains, trace.Distributed(total), eval, itemCost)
	e.rc.Hooks.Decision(phaseName, count, itemCost, total, int64(count), st) // words: the gains all-gather
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
				l = len(cc.Clusters[i].Obs.Clusters)
			}
			return float64(e.q.M + trace.LogMLCost*2*l)
		}
		s := e.decide(PhaseVarReassign, k+1,
			func(i int) float64 { return cc.GainAttachVar(r, i) }, cost)
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
		srcL := len(cc.Clusters[i].Obs.Clusters)
		cost := func(j int) float64 {
			if j == i {
				return 1
			}
			return float64(e.q.M + trace.LogMLCost*(2*len(cc.Clusters[j].Obs.Clusters)+srcL))
		}
		s := e.decide(PhaseVarMerge, k,
			func(j int) float64 { return cc.GainMergeVar(cols, i, j) }, cost)
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
			func(i int) float64 { return oc.GainAttachObs(col, i) },
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
			func(j int) float64 { return oc.GainMergeObs(i, j) },
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
	cc := cluster.NewRandomCoClustering(e.q, e.prior, par.InitVarClusters, par.InitObsClusters, e.g)
	cc.UseKernel(e.kern)
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
		oc := cc.Clusters[vi].Obs
		e.reassignObs(oc)
		e.mergeObs(oc)
	}
}

// RunWithComm executes one GaneSH run across the ranks of rc's world and
// returns the final co-clustering. Every rank must pass a PRNG in the same
// state; every rank returns an identical co-clustering, bit-equal for every
// world size and worker count: the Gain* evaluations are read-only on the
// clustering state and each writes only its own gains slot.
func RunWithComm(rc rank.Context, q *score.QData, pr score.Prior, par Params, g *prng.MRG3) *cluster.CoClustering {
	return newEngine(rc, q, pr, q.N, g).run(par)
}

// Run is RunWithComm on the one-rank world, recording into wl when non-nil.
func Run(q *score.QData, pr score.Prior, par Params, g *prng.MRG3, wl *trace.Workload) *cluster.CoClustering {
	return RunWithComm(rank.Self(wl), q, pr, par, g)
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
		c := 1
		for c*c < m {
			c++
		}
		p.InitObsClusters = c
	}
	if p.Updates == 0 {
		p.Updates = 1
	}
	return p
}

// SampleObsClusteringsWithComm runs GaneSH constrained to a single pinned
// variable cluster (the module's variables) across the ranks of rc's world
// and returns the observation clusterings sampled after burn-in — one
// snapshot per post-burn-in update step — plus the final partition state;
// identical on every rank.
func SampleObsClusteringsWithComm(rc rank.Context, q *score.QData, pr score.Prior, vars []int, par ObsParams, g *prng.MRG3) ([][][]int, *cluster.ObsClusters) {
	return sampleObs(newEngine(rc, q, pr, len(vars), g), vars, par)
}

// SampleObsClusterings is SampleObsClusteringsWithComm on the one-rank world,
// recording into wl when non-nil.
func SampleObsClusterings(q *score.QData, pr score.Prior, vars []int, par ObsParams, g *prng.MRG3, wl *trace.Workload) ([][][]int, *cluster.ObsClusters) {
	return SampleObsClusteringsWithComm(rank.Self(wl), q, pr, vars, par, g)
}

func sampleObs(e *engine, vars []int, par ObsParams) ([][][]int, *cluster.ObsClusters) {
	par = par.withDefaults(e.q.M)
	oc := cluster.NewRandomObsClusters(e.q, e.prior, vars, par.InitObsClusters, e.g)
	oc.UseKernel(e.kern)
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
func CoOccurrence(n int, ensembles [][][]int, threshold float64) []float64 {
	a := make([]float64, n*n)
	if len(ensembles) == 0 {
		return a
	}
	inc := 1 / float64(len(ensembles))
	for _, snap := range ensembles {
		for _, cl := range snap {
			for _, i := range cl {
				for _, j := range cl {
					a[i*n+j] += inc
				}
			}
		}
	}
	for i := range a {
		if a[i] < threshold {
			a[i] = 0
		}
	}
	// Clamp accumulated rounding above 1.
	for i := range a {
		if a[i] > 1 {
			a[i] = 1
		}
	}
	return a
}

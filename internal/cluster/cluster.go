// Package cluster maintains the co-clustering state that the GaneSH Gibbs
// sampler (§2.2.1, Algorithms 1–3 of the paper) operates on: a partition of
// variables into variable clusters and, within each variable cluster, a
// partition of the observations into observation clusters. Each
// (variable-cluster × observation-cluster) block carries exact sufficient
// statistics (see package score), so move and merge operations update the
// decomposable Bayesian score incrementally and reproducibly.
//
// Every mutating operation is deterministic given its arguments. The
// engines replicate this state on all ranks and apply the same
// operations everywhere; only the *scoring* of candidate operations is
// partitioned across ranks.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"parsimone/internal/prng"
	"parsimone/internal/score"
)

// ObsCluster is one observation cluster inside a variable cluster, together
// with the sufficient statistics of its block (parent cluster's variables ×
// this cluster's observations) and the block's score.
type ObsCluster struct {
	Obs   []int
	Stats score.Stats
	// logML is the block score logML(Stats), re-evaluated by every mutation
	// that changes Stats (ObsClusters.rescore) so the read-only Gain* and
	// Score calls subtract it instead of re-scoring the unchanged block on
	// every candidate. It is the same pure function of the same integers, so
	// the same bits (CheckInvariants compares it with a fresh evaluation).
	logML float64
}

// ObsClusters is a partition of all m observations relative to a fixed set
// of variables. It is used both inside CoClustering (one per variable
// cluster) and standalone for the module-learning task, where GaneSH runs
// with the variable clusters pinned (Algorithm 4, lines 3–9).
type ObsClusters struct {
	Q     *score.QData
	Prior score.Prior
	// Kernel, when non-nil, serves LogML evaluations from the precomputed
	// score kernel — bit-identical to Prior.LogML (score.Kernel), so gains
	// and scores are unchanged. Must be built for the same Prior.
	Kernel *score.Kernel
	// Vars are the variables whose cells the blocks cover.
	Vars []int
	// Assign maps each observation to its cluster index, or -1 while the
	// observation is detached.
	Assign   []int
	Clusters []*ObsCluster
	// perm lists all m observations: cluster i's in the run
	// [ends[i−1], ends[i]) (ends[−1] = 0), in any order, and a detached
	// one past the last run. It is the layout the attach-var gather kernel
	// reads (DESIGN §30), kept only where layout is set: by the partitions
	// nested in a CoClustering, not by the standalone ones of module
	// learning, which nothing gathers from. Every mutator keeps it current,
	// so the read path — which pool workers and ranks run concurrently —
	// never builds it. An observation move swaps it across the run
	// boundaries between its clusters, O(len(Clusters)), and moves no run.
	perm, ends []int32
	layout     bool
}

// logML evaluates the prior's marginal log-likelihood, through the kernel
// when one is attached.
func (oc *ObsClusters) logML(s score.Stats) float64 {
	if oc.Kernel != nil {
		return oc.Kernel.LogML(s)
	}
	return oc.Prior.LogML(s)
}

// UseKernel attaches k (which must be built for oc.Prior) so every
// subsequent LogML evaluation goes through the precomputed tables.
func (oc *ObsClusters) UseKernel(k *score.Kernel) { oc.Kernel = k }

// rescore stores c's block score after a mutation changed c.Stats.
func (oc *ObsClusters) rescore(c *ObsCluster) { c.logML = oc.logML(c.Stats) }

// NewRandomObsClusters partitions the m observations of q into `count`
// clusters uniformly at random (consuming m draws from g in observation
// order), relative to the given variables. Empty clusters are removed.
func NewRandomObsClusters(q *score.QData, pr score.Prior, vars []int, count int, g *prng.MRG3) *ObsClusters {
	if count < 1 {
		count = 1
	}
	if count > q.M {
		count = q.M
	}
	oc := &ObsClusters{Q: q, Prior: pr, Vars: append([]int(nil), vars...), Assign: make([]int, q.M)}
	for c := 0; c < count; c++ {
		oc.Clusters = append(oc.Clusters, &ObsCluster{})
	}
	for j := 0; j < q.M; j++ {
		c := g.Intn(count)
		oc.Assign[j] = c
		oc.Clusters[c].Obs = append(oc.Clusters[c].Obs, j)
	}
	oc.dropEmpty()
	oc.rebuildStats()
	return oc
}

// newSingleObsCluster returns an ObsClusters with every observation in one
// cluster — the initial observation partition of a freshly created singleton
// variable cluster.
func newSingleObsCluster(q *score.QData, pr score.Prior, kern *score.Kernel, vars []int) *ObsClusters {
	oc := &ObsClusters{Q: q, Prior: pr, Kernel: kern, Vars: append([]int(nil), vars...), Assign: make([]int, q.M), layout: true}
	c := &ObsCluster{Obs: make([]int, q.M)}
	for j := 0; j < q.M; j++ {
		c.Obs[j] = j
	}
	oc.Clusters = []*ObsCluster{c}
	oc.relayout()
	oc.rebuildStats()
	return oc
}

// dropEmpty removes empty clusters, shifting later indices down — the
// canonical compaction every rank performs identically.
func (oc *ObsClusters) dropEmpty() {
	out := oc.Clusters[:0]
	for _, c := range oc.Clusters {
		if len(c.Obs) > 0 {
			out = append(out, c)
		}
	}
	oc.Clusters = out
	for idx, c := range oc.Clusters {
		for _, j := range c.Obs {
			oc.Assign[j] = idx
		}
	}
	oc.relayout()
}

// relayout rebuilds the observation layout (perm, ends) from the clusters,
// where the partition keeps one.
func (oc *ObsClusters) relayout() {
	if !oc.layout {
		return
	}
	oc.perm, oc.ends = slices.Grow(oc.perm[:0], len(oc.Assign)), slices.Grow(oc.ends[:0], len(oc.Clusters))
	for _, c := range oc.Clusters {
		for _, j := range c.Obs {
			oc.perm = append(oc.perm, int32(j))
		}
		oc.ends = append(oc.ends, int32(len(oc.perm)))
	}
	for j, ci := range oc.Assign {
		if ci < 0 {
			oc.perm = append(oc.perm, int32(j))
		}
	}
}

// runStart is where cluster ci's run starts in perm; ci may be
// len(Clusters), where the detached observations start.
func (oc *ObsClusters) runStart(ci int) int {
	if ci == 0 {
		return 0
	}
	return int(oc.ends[ci-1])
}

// rebuildStats recomputes every block's statistics from the raw cells.
func (oc *ObsClusters) rebuildStats() {
	for _, c := range oc.Clusters {
		c.Stats = score.Stats{}
		for _, x := range oc.Vars {
			row := oc.Q.Row(x)
			for _, j := range c.Obs {
				c.Stats.Add(int64(row[j]))
			}
		}
		oc.rescore(c)
	}
}

// ColumnStats returns the statistics of observation j's cells across the
// cluster set's variables.
func (oc *ObsClusters) ColumnStats(j int) score.Stats {
	var s score.Stats
	for _, x := range oc.Vars {
		s.Add(oc.Q.At(x, j))
	}
	return s
}

// Score returns the total block score of this observation partition.
func (oc *ObsClusters) Score() float64 {
	var total float64
	for _, c := range oc.Clusters {
		total += c.logML
	}
	return total
}

// AddVar extends every block with variable x's cells.
func (oc *ObsClusters) AddVar(x int) {
	row := oc.Q.Row(x)
	for _, c := range oc.Clusters {
		for _, j := range c.Obs {
			c.Stats.Add(int64(row[j]))
		}
		oc.rescore(c)
	}
	oc.Vars = append(oc.Vars, x)
}

// RemoveVar deletes variable x's cells from every block. It panics if x is
// not a member.
func (oc *ObsClusters) RemoveVar(x int) {
	found := false
	for i, v := range oc.Vars {
		if v == x {
			oc.Vars = append(oc.Vars[:i], oc.Vars[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("cluster: RemoveVar(%d): not a member", x))
	}
	row := oc.Q.Row(x)
	for _, c := range oc.Clusters {
		for _, j := range c.Obs {
			c.Stats.Remove(int64(row[j]))
		}
		oc.rescore(c)
	}
}

// DetachObs removes observation j from its cluster and returns its column
// statistics. If the cluster becomes empty it is removed (canonical
// compaction). The observation must be re-attached with AttachObs before any
// other mutation.
func (oc *ObsClusters) DetachObs(j int) score.Stats {
	ci := oc.Assign[j]
	if ci < 0 {
		panic(fmt.Sprintf("cluster: DetachObs(%d): already detached", j))
	}
	c := oc.Clusters[ci]
	col := oc.ColumnStats(j)
	c.Stats.Unmerge(col)
	oc.rescore(c)
	for i, o := range c.Obs {
		if o == j {
			c.Obs = append(c.Obs[:i], c.Obs[i+1:]...)
			break
		}
	}
	if oc.layout {
		// j leaves each run from ci on by trading places with its last
		// observation and shrinking it, which ends with j past the last run.
		p := oc.runStart(ci)
		for int(oc.perm[p]) != j {
			p++
		}
		for k := ci; k < len(oc.ends); k++ {
			last := int(oc.ends[k]) - 1
			oc.perm[p], oc.perm[last] = oc.perm[last], oc.perm[p]
			oc.ends[k] = int32(last)
			p = last
		}
		if len(c.Obs) == 0 {
			oc.ends = append(oc.ends[:ci], oc.ends[ci+1:]...)
		}
	}
	oc.Assign[j] = -1
	if len(c.Obs) == 0 {
		oc.Clusters = append(oc.Clusters[:ci], oc.Clusters[ci+1:]...)
		for idx := ci; idx < len(oc.Clusters); idx++ {
			for _, o := range oc.Clusters[idx].Obs {
				oc.Assign[o] = idx
			}
		}
	}
	return col
}

// GainAttachObs returns the score gain of attaching a detached observation
// with column statistics col to cluster `to`; to == len(Clusters) scores
// placing it in a new singleton cluster.
func (oc *ObsClusters) GainAttachObs(col score.Stats, to int) float64 {
	if to == len(oc.Clusters) {
		return oc.logML(col)
	}
	c := oc.Clusters[to]
	return oc.logML(c.Stats.Plus(col)) - c.logML
}

// AttachObs places a detached observation j into cluster `to`;
// to == len(Clusters) creates a new cluster.
func (oc *ObsClusters) AttachObs(j, to int) {
	if oc.Assign[j] != -1 {
		panic(fmt.Sprintf("cluster: AttachObs(%d): not detached", j))
	}
	col := oc.ColumnStats(j)
	if oc.layout {
		// j enters the runs from the last down to `to` by trading places
		// with each run's first observation, which shifts the run up by one.
		p := oc.runStart(len(oc.Clusters))
		for int(oc.perm[p]) != j {
			p++
		}
		if to == len(oc.Clusters) {
			oc.ends = append(oc.ends, int32(p))
		}
		for k := len(oc.ends) - 1; k > to; k-- {
			first := oc.runStart(k)
			oc.perm[p], oc.perm[first] = oc.perm[first], oc.perm[p]
			oc.ends[k]++
			p = first
		}
		oc.ends[to]++
	}
	if to == len(oc.Clusters) {
		oc.Clusters = append(oc.Clusters, &ObsCluster{})
	}
	c := oc.Clusters[to]
	c.Obs = append(c.Obs, j)
	c.Stats.Merge(col)
	oc.rescore(c)
	oc.Assign[j] = to
}

// GainMergeObs returns the score gain of merging cluster src into dst
// (0 when src == dst, i.e. retaining).
func (oc *ObsClusters) GainMergeObs(src, dst int) float64 {
	if src == dst {
		return 0
	}
	a, b := oc.Clusters[src], oc.Clusters[dst]
	return oc.logML(a.Stats.Plus(b.Stats)) - a.logML - b.logML
}

// MergeObs merges cluster src into dst and removes src.
func (oc *ObsClusters) MergeObs(src, dst int) {
	if src == dst {
		panic("cluster: MergeObs with src == dst")
	}
	a, b := oc.Clusters[src], oc.Clusters[dst]
	b.Obs = append(b.Obs, a.Obs...)
	b.Stats.Merge(a.Stats)
	oc.rescore(b)
	for _, j := range a.Obs {
		oc.Assign[j] = dst
	}
	oc.Clusters = append(oc.Clusters[:src], oc.Clusters[src+1:]...)
	for idx := src; idx < len(oc.Clusters); idx++ {
		for _, o := range oc.Clusters[idx].Obs {
			oc.Assign[o] = idx
		}
	}
	oc.relayout()
}

// Snapshot returns the observation partition as cluster-index slices with
// canonically sorted contents (clusters ordered by smallest member).
func (oc *ObsClusters) Snapshot() [][]int {
	out := make([][]int, len(oc.Clusters))
	for i, c := range oc.Clusters {
		out[i] = append([]int(nil), c.Obs...)
		sort.Ints(out[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// CheckInvariants verifies assignment/membership consistency, that every
// cell of the blocks lies within ±score.MaxAbsCell, that all block
// statistics equal a from-scratch recomputation, that every stored block
// score is bit-equal to a fresh evaluation of those statistics, and the
// observation layout where the partition keeps one. Used by tests and
// available for debugging.
func (oc *ObsClusters) CheckInvariants() error {
	seen := make([]int, oc.Q.M)
	for i := range seen {
		seen[i] = -1
	}
	for ci, c := range oc.Clusters {
		if len(c.Obs) == 0 {
			return fmt.Errorf("cluster: empty obs cluster %d retained", ci)
		}
		var want score.Stats
		for _, x := range oc.Vars {
			row := oc.Q.Row(x)
			for _, j := range c.Obs {
				if v := row[j]; v < -score.MaxAbsCell || v > score.MaxAbsCell {
					return fmt.Errorf("cluster: cell (%d, %d) = %d lies outside ±MaxAbsCell", x, j, v)
				}
				want.Add(int64(row[j]))
			}
		}
		if c.Stats != want {
			return fmt.Errorf("cluster: obs cluster %d stats %+v, recomputed %+v", ci, c.Stats, want)
		}
		if fresh := oc.logML(want); math.Float64bits(c.logML) != math.Float64bits(fresh) {
			return fmt.Errorf("cluster: obs cluster %d stored score %v (%#x), fresh evaluation %v (%#x)",
				ci, c.logML, math.Float64bits(c.logML), fresh, math.Float64bits(fresh))
		}
		for _, j := range c.Obs {
			if seen[j] != -1 {
				return fmt.Errorf("cluster: observation %d in clusters %d and %d", j, seen[j], ci)
			}
			seen[j] = ci
			if oc.Assign[j] != ci {
				return fmt.Errorf("cluster: observation %d assigned %d, member of %d", j, oc.Assign[j], ci)
			}
		}
	}
	for j, ci := range oc.Assign {
		if ci >= 0 && seen[j] != ci {
			return fmt.Errorf("cluster: observation %d assignment %d has no membership", j, ci)
		}
	}
	if !oc.layout {
		return nil
	}
	if len(oc.ends) != len(oc.Clusters) {
		return fmt.Errorf("cluster: layout has %d runs for %d obs clusters", len(oc.ends), len(oc.Clusters))
	}
	if len(oc.perm) != len(oc.Assign) {
		return fmt.Errorf("cluster: layout lists %d observations, want %d", len(oc.perm), len(oc.Assign))
	}
	listed := make([]bool, len(oc.Assign))
	for _, j := range oc.perm {
		if j < 0 || int(j) >= len(listed) || listed[j] {
			return fmt.Errorf("cluster: layout lists observation %d out of range or twice", j)
		}
		listed[j] = true
	}
	start := 0
	for ci, c := range oc.Clusters {
		end := int(oc.ends[ci])
		if end-start != len(c.Obs) {
			return fmt.Errorf("cluster: layout run %d is [%d, %d) for %d observations", ci, start, end, len(c.Obs))
		}
		for _, j := range oc.perm[start:end] {
			if oc.Assign[j] != ci {
				return fmt.Errorf("cluster: layout run %d holds observation %d, assigned %d", ci, j, oc.Assign[j])
			}
		}
		start = end
	}
	for _, j := range oc.perm[start:] {
		if oc.Assign[j] != -1 {
			return fmt.Errorf("cluster: layout lists attached observation %d past the runs", j)
		}
	}
	return nil
}

// VarCluster is one variable cluster with its observation partition.
type VarCluster struct {
	Vars []int
	Obs  *ObsClusters
}

// CoClustering is the full two-way clustering state of Algorithm 3.
type CoClustering struct {
	Q     *score.QData
	Prior score.Prior
	// Kernel, when non-nil, serves LogML evaluations from the precomputed
	// score kernel — bit-identical to Prior.LogML (score.Kernel). Propagated
	// to every nested observation partition by UseKernel and AttachVar.
	Kernel *score.Kernel
	// Assign maps each variable to its cluster index, or -1 while
	// detached.
	Assign   []int
	Clusters []*VarCluster
}

// logML evaluates the prior's marginal log-likelihood, through the kernel
// when one is attached.
func (cc *CoClustering) logML(s score.Stats) float64 {
	if cc.Kernel != nil {
		return cc.Kernel.LogML(s)
	}
	return cc.Prior.LogML(s)
}

// UseKernel attaches k (which must be built for cc.Prior) to the
// co-clustering and every nested observation partition.
func (cc *CoClustering) UseKernel(k *score.Kernel) {
	cc.Kernel = k
	for _, vc := range cc.Clusters {
		vc.Obs.Kernel = k
	}
}

// NewRandomCoClustering assigns each variable to one of k0 clusters
// uniformly at random (n draws in variable order), then partitions each
// cluster's observations into obsCount random clusters (m draws per cluster,
// in cluster order). Empty variable clusters are removed. This is the random
// initialization of Algorithm 3, lines 3–5.
func NewRandomCoClustering(q *score.QData, pr score.Prior, k0, obsCount int, g *prng.MRG3) *CoClustering {
	if k0 < 1 {
		k0 = 1
	}
	if k0 > q.N {
		k0 = q.N
	}
	cc := &CoClustering{Q: q, Prior: pr, Assign: make([]int, q.N)}
	members := make([][]int, k0)
	for x := 0; x < q.N; x++ {
		c := g.Intn(k0)
		members[c] = append(members[c], x)
	}
	for _, vars := range members {
		if len(vars) == 0 {
			continue
		}
		vc := &VarCluster{
			Vars: vars,
			Obs:  NewRandomObsClusters(q, pr, vars, obsCount, g),
		}
		vc.Obs.layout = true
		vc.Obs.relayout()
		cc.Clusters = append(cc.Clusters, vc)
	}
	for idx, vc := range cc.Clusters {
		for _, x := range vc.Vars {
			cc.Assign[x] = idx
		}
	}
	return cc
}

// Score returns the total score over all blocks of all variable clusters.
func (cc *CoClustering) Score() float64 {
	var total float64
	for _, vc := range cc.Clusters {
		total += vc.Obs.Score()
	}
	return total
}

// DetachVar removes variable x from its cluster. If the cluster becomes
// empty it is removed. The variable must be re-attached with AttachVar
// before any other mutation.
func (cc *CoClustering) DetachVar(x int) {
	ci := cc.Assign[x]
	if ci < 0 {
		panic(fmt.Sprintf("cluster: DetachVar(%d): already detached", x))
	}
	vc := cc.Clusters[ci]
	vc.Obs.RemoveVar(x)
	for i, v := range vc.Vars {
		if v == x {
			vc.Vars = append(vc.Vars[:i], vc.Vars[i+1:]...)
			break
		}
	}
	cc.Assign[x] = -1
	if len(vc.Vars) == 0 {
		cc.Clusters = append(cc.Clusters[:ci], cc.Clusters[ci+1:]...)
		for idx := ci; idx < len(cc.Clusters); idx++ {
			for _, v := range cc.Clusters[idx].Vars {
				cc.Assign[v] = idx
			}
		}
	}
}

// GainAttachVar returns the score gain of attaching the detached variable x
// to cluster `to`; to == len(Clusters) scores a new singleton cluster
// (which starts with a single observation cluster).
func (cc *CoClustering) GainAttachVar(x, to int) float64 {
	row := cc.Q.Row(x)
	if to == len(cc.Clusters) {
		return cc.logML(score.StatsOf(row))
	}
	vc := cc.Clusters[to]
	var gain float64
	for _, c := range vc.Obs.Clusters {
		var part score.Stats
		for _, j := range c.Obs {
			part.Add(int64(row[j]))
		}
		gain += cc.logML(c.Stats.Plus(part)) - c.logML
	}
	return gain
}

// AttachVar places the detached variable x into cluster `to`;
// to == len(Clusters) creates a new singleton cluster.
func (cc *CoClustering) AttachVar(x, to int) {
	if cc.Assign[x] != -1 {
		panic(fmt.Sprintf("cluster: AttachVar(%d): not detached", x))
	}
	if to == len(cc.Clusters) {
		vc := &VarCluster{
			Vars: []int{x},
			Obs:  newSingleObsCluster(cc.Q, cc.Prior, cc.Kernel, []int{x}),
		}
		cc.Clusters = append(cc.Clusters, vc)
		cc.Assign[x] = to
		return
	}
	vc := cc.Clusters[to]
	vc.Vars = append(vc.Vars, x)
	vc.Obs.AddVar(x)
	cc.Assign[x] = to
}

// VarColumnStats returns, for variable cluster src, the per-observation
// statistics of its cells — the precomputation that makes each merge
// candidate evaluable in O(m + L) instead of O(|vars|·m).
func (cc *CoClustering) VarColumnStats(src int) []score.Stats {
	cols := make([]score.Stats, cc.Q.M)
	for _, x := range cc.Clusters[src].Vars {
		row := cc.Q.Row(x)
		for j, v := range row {
			cols[j].Add(int64(v))
		}
	}
	return cols
}

// GainMergeVar returns the score gain of merging variable cluster src into
// dst, where the merged cluster keeps dst's observation partition. cols must
// be VarColumnStats(src). Returns 0 for src == dst (retain).
func (cc *CoClustering) GainMergeVar(cols []score.Stats, src, dst int) float64 {
	if src == dst {
		return 0
	}
	var gain float64
	for _, c := range cc.Clusters[dst].Obs.Clusters {
		var part score.Stats
		for _, j := range c.Obs {
			part.Merge(cols[j])
		}
		gain += cc.logML(c.Stats.Plus(part)) - c.logML
	}
	for _, c := range cc.Clusters[src].Obs.Clusters {
		gain -= c.logML
	}
	return gain
}

// MergeVar merges variable cluster src into dst; the merged cluster keeps
// dst's observation partition. src is removed.
func (cc *CoClustering) MergeVar(src, dst int) {
	if src == dst {
		panic("cluster: MergeVar with src == dst")
	}
	sc, dc := cc.Clusters[src], cc.Clusters[dst]
	for _, x := range sc.Vars {
		dc.Obs.AddVar(x)
		dc.Vars = append(dc.Vars, x)
		cc.Assign[x] = dst
	}
	cc.Clusters = append(cc.Clusters[:src], cc.Clusters[src+1:]...)
	for idx := src; idx < len(cc.Clusters); idx++ {
		for _, v := range cc.Clusters[idx].Vars {
			cc.Assign[v] = idx
		}
	}
}

// VarAssignment returns a copy of the variable → cluster index assignment.
func (cc *CoClustering) VarAssignment() []int {
	return append([]int(nil), cc.Assign...)
}

// VarSnapshot returns the variable partition as sorted slices, clusters
// ordered by smallest member — the canonical form sampled into the
// co-clustering ensemble.
func (cc *CoClustering) VarSnapshot() [][]int {
	out := make([][]int, len(cc.Clusters))
	for i, vc := range cc.Clusters {
		out[i] = append([]int(nil), vc.Vars...)
		sort.Ints(out[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// CheckInvariants verifies the full co-clustering state, including every
// nested observation partition.
func (cc *CoClustering) CheckInvariants() error {
	seen := make([]int, cc.Q.N)
	for i := range seen {
		seen[i] = -1
	}
	for ci, vc := range cc.Clusters {
		if len(vc.Vars) == 0 {
			return fmt.Errorf("cluster: empty variable cluster %d retained", ci)
		}
		if len(vc.Vars) != len(vc.Obs.Vars) {
			return fmt.Errorf("cluster: cluster %d has %d vars but obs partition covers %d",
				ci, len(vc.Vars), len(vc.Obs.Vars))
		}
		for _, x := range vc.Vars {
			if seen[x] != -1 {
				return fmt.Errorf("cluster: variable %d in clusters %d and %d", x, seen[x], ci)
			}
			seen[x] = ci
			if cc.Assign[x] != ci {
				return fmt.Errorf("cluster: variable %d assigned %d, member of %d", x, cc.Assign[x], ci)
			}
		}
		if err := vc.Obs.CheckInvariants(); err != nil {
			return fmt.Errorf("cluster %d: %w", ci, err)
		}
	}
	return nil
}

// Package cluster maintains the co-clustering state that the GaneSH Gibbs
// sampler (§2.2.1, Algorithms 1–3 of the paper) operates on: a partition of
// variables into variable clusters and, within each variable cluster, a
// partition of the observations into observation clusters. Each
// (variable-cluster × observation-cluster) block carries exact sufficient
// statistics (see package score), so move and merge operations update the
// decomposable Bayesian score incrementally and reproducibly.
//
// A variable cluster is its observation partition (ObsClusters), whose
// variable list is the cluster's one list. A partition's only membership
// record is its observation layout: each cluster's observations in one run
// of a permutation, the layout the variable decisions' gather reads
// (DESIGN §30). Every block is scored through the rank's score.Kernel.
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

// ObsCluster is one observation cluster inside a variable cluster: the
// sufficient statistics of its block (parent cluster's variables × this
// cluster's observations) and the block's score. Its observations are its
// run of the partition's layout (ObsClusters.Obs).
type ObsCluster struct {
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
// cluster, which it is) and standalone for the module-learning task, where
// GaneSH runs with the variable clusters pinned (Algorithm 4, lines 3–9).
type ObsClusters struct {
	Q *score.QData
	// Kernel scores every block: the rank's kernel, whose prior is the
	// score's.
	Kernel *score.Kernel
	// Vars are the variables whose cells the blocks cover.
	Vars []int
	// Assign maps each observation to its cluster index, or -1 while the
	// observation is detached.
	Assign   []int
	Clusters []*ObsCluster
	// perm and ends are the partition's only membership record, the layout
	// the variable decisions' gather reads (DESIGN §30): perm lists all m
	// observations, cluster i's in the run [ends[i−1], ends[i]) (ends[−1] =
	// 0), in any order, and a detached one past the last run. Every mutator
	// keeps it current, so the read path — which pool workers and ranks run
	// concurrently — never builds it. An observation move swaps it across
	// the run boundaries between its clusters, O(len(Clusters)), and moves
	// no run; a merge rotates the runs between its two clusters.
	perm, ends []int32
}

// rescore stores c's block score after a mutation changed c.Stats.
func (oc *ObsClusters) rescore(c *ObsCluster) { c.logML = oc.Kernel.LogML(c.Stats) }

// NewRandomObsClusters partitions the m observations of q into `count`
// clusters uniformly at random (consuming m draws from g in observation
// order), relative to the given variables, scored through kern. Empty
// clusters are removed, shifting later indices down — the canonical
// compaction every rank performs identically.
func NewRandomObsClusters(q *score.QData, kern *score.Kernel, vars []int, count int, g *prng.MRG3) *ObsClusters {
	if count < 1 {
		count = 1
	}
	if count > q.M {
		count = q.M
	}
	oc := &ObsClusters{Q: q, Kernel: kern, Vars: append([]int(nil), vars...), Assign: make([]int, q.M)}
	size := make([]int, count)
	for j := range oc.Assign {
		c := g.Intn(count)
		oc.Assign[j] = c
		size[c]++
	}
	index := make([]int, count)
	for c := range size {
		index[c] = len(oc.Clusters)
		if size[c] > 0 {
			oc.Clusters = append(oc.Clusters, &ObsCluster{})
		}
	}
	for j, c := range oc.Assign {
		oc.Assign[j] = index[c]
	}
	oc.lay()
	oc.rebuildStats()
	return oc
}

// newSingleObsCluster returns an ObsClusters with every observation in one
// cluster — the initial observation partition of a freshly created singleton
// variable cluster.
func newSingleObsCluster(q *score.QData, kern *score.Kernel, vars []int) *ObsClusters {
	oc := &ObsClusters{Q: q, Kernel: kern, Vars: append([]int(nil), vars...), Assign: make([]int, q.M),
		Clusters: []*ObsCluster{{}}}
	oc.lay()
	oc.rebuildStats()
	return oc
}

// lay builds the layout of a partition with every observation attached,
// each run in observation order.
func (oc *ObsClusters) lay() {
	// ends holds each run's start first; placing the observations advances
	// it to the run's end.
	oc.ends = make([]int32, len(oc.Clusters))
	for _, ci := range oc.Assign {
		if ci+1 < len(oc.ends) {
			oc.ends[ci+1]++
		}
	}
	for ci := 1; ci < len(oc.ends); ci++ {
		oc.ends[ci] += oc.ends[ci-1]
	}
	oc.perm = make([]int32, len(oc.Assign))
	for j, ci := range oc.Assign {
		oc.perm[oc.ends[ci]] = int32(j)
		oc.ends[ci]++
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

// Obs returns cluster ci's observations, in no particular order. The slice
// is the partition's own, valid until the next mutation; the caller must not
// modify it.
func (oc *ObsClusters) Obs(ci int) []int32 { return oc.perm[oc.runStart(ci):oc.ends[ci]] }

// rebuildStats recomputes every block's statistics from the raw cells.
func (oc *ObsClusters) rebuildStats() {
	for ci, c := range oc.Clusters {
		c.Stats = score.Stats{}
		for _, x := range oc.Vars {
			row := oc.Q.Row(x)
			for _, j := range oc.Obs(ci) {
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
	for ci, c := range oc.Clusters {
		for _, j := range oc.Obs(ci) {
			c.Stats.Add(int64(row[j]))
		}
		oc.rescore(c)
	}
	oc.Vars = append(oc.Vars, x)
}

// RemoveVar deletes variable x's cells from every block. It panics if x is
// not a member.
func (oc *ObsClusters) RemoveVar(x int) {
	i := slices.Index(oc.Vars, x)
	if i < 0 {
		panic(fmt.Sprintf("cluster: RemoveVar(%d): not a member", x))
	}
	oc.Vars = slices.Delete(oc.Vars, i, i+1)
	row := oc.Q.Row(x)
	for ci, c := range oc.Clusters {
		for _, j := range oc.Obs(ci) {
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
	oc.Assign[j] = -1
	if oc.runStart(ci) == int(oc.ends[ci]) {
		oc.ends = slices.Delete(oc.ends, ci, ci+1)
		oc.Clusters = slices.Delete(oc.Clusters, ci, ci+1)
		oc.renumber(ci)
	}
	return col
}

// renumber points Assign at the clusters' indices from ci on, after a
// cluster before them was removed or cluster ci's run took another's.
func (oc *ObsClusters) renumber(ci int) {
	for ; ci < len(oc.Clusters); ci++ {
		for _, o := range oc.Obs(ci) {
			oc.Assign[o] = ci
		}
	}
}

// GainAttachObs returns the score gain of attaching a detached observation
// with column statistics col to cluster `to`; to == len(Clusters) scores
// placing it in a new singleton cluster.
func (oc *ObsClusters) GainAttachObs(col score.Stats, to int) float64 {
	if to == len(oc.Clusters) {
		return oc.Kernel.LogML(col)
	}
	c := oc.Clusters[to]
	return oc.Kernel.LogML(c.Stats.Plus(col)) - c.logML
}

// AttachObs places a detached observation j into cluster `to`;
// to == len(Clusters) creates a new cluster.
func (oc *ObsClusters) AttachObs(j, to int) {
	if oc.Assign[j] != -1 {
		panic(fmt.Sprintf("cluster: AttachObs(%d): not detached", j))
	}
	// j enters the runs from the last down to `to` by trading places with
	// each run's first observation, which shifts the run up by one.
	p := oc.runStart(len(oc.Clusters))
	for int(oc.perm[p]) != j {
		p++
	}
	if to == len(oc.Clusters) {
		oc.ends = append(oc.ends, int32(p))
		oc.Clusters = append(oc.Clusters, &ObsCluster{})
	}
	for k := len(oc.ends) - 1; k > to; k-- {
		first := oc.runStart(k)
		oc.perm[p], oc.perm[first] = oc.perm[first], oc.perm[p]
		oc.ends[k]++
		p = first
	}
	oc.ends[to]++
	c := oc.Clusters[to]
	c.Stats.Merge(oc.ColumnStats(j))
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
	return oc.Kernel.LogML(a.Stats.Plus(b.Stats)) - a.logML - b.logML
}

// MergeObs merges cluster src into dst and removes src. The runs between
// the two rotate so that src's run lies next to dst's, and the two become
// one: the merge moves that span of perm and no other.
func (oc *ObsClusters) MergeObs(src, dst int) {
	if src == dst {
		panic("cluster: MergeObs with src == dst")
	}
	a, b := oc.Clusters[src], oc.Clusters[dst]
	b.Stats.Merge(a.Stats)
	oc.rescore(b)
	size := int32(len(oc.Obs(src)))
	if src < dst {
		// src's run moves up past the runs src+1 … dst−1 to the start of
		// dst's, which lower by its length.
		rotate(oc.perm[oc.runStart(src):oc.runStart(dst)], int(size))
		for k := src + 1; k < dst; k++ {
			oc.ends[k] -= size
		}
	} else {
		// src's run moves down past the runs dst+1 … src−1 to the end of
		// dst's, which rise by its length.
		span := oc.perm[oc.ends[dst]:oc.ends[src]]
		rotate(span, len(span)-int(size))
		for k := dst; k < src; k++ {
			oc.ends[k] += size
		}
	}
	oc.ends = slices.Delete(oc.ends, src, src+1)
	oc.Clusters = slices.Delete(oc.Clusters, src, src+1)
	oc.renumber(min(src, dst))
}

// rotate moves s's first k elements to its end, keeping both parts'
// orders.
func rotate(s []int32, k int) {
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
	slices.Reverse(s)
}

// Snapshot returns the observation partition as cluster-index slices with
// canonically sorted contents (clusters ordered by smallest member).
func (oc *ObsClusters) Snapshot() [][]int {
	out := make([][]int, len(oc.Clusters))
	for ci := range oc.Clusters {
		for _, j := range oc.Obs(ci) {
			out[ci] = append(out[ci], int(j))
		}
		sort.Ints(out[ci])
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// CheckInvariants verifies the membership record — the layout lists every
// observation once, each run holds exactly the observations assigned its
// cluster and is not empty, and the tail holds the detached ones — that
// every cell of the blocks lies within ±score.MaxAbsCell, that all block
// statistics equal a from-scratch recomputation, and that every stored
// block score is bit-equal to a fresh evaluation of those statistics. Used
// by tests and available for debugging.
func (oc *ObsClusters) CheckInvariants() error {
	if len(oc.ends) != len(oc.Clusters) {
		return fmt.Errorf("cluster: layout has %d runs for %d obs clusters", len(oc.ends), len(oc.Clusters))
	}
	if len(oc.perm) != len(oc.Assign) || len(oc.Assign) != oc.Q.M {
		return fmt.Errorf("cluster: layout lists %d observations and assigns %d, want %d", len(oc.perm), len(oc.Assign), oc.Q.M)
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
		if end <= start || end > len(oc.perm) {
			return fmt.Errorf("cluster: layout run %d is [%d, %d): empty or out of range", ci, start, end)
		}
		var want score.Stats
		for _, x := range oc.Vars {
			row := oc.Q.Row(x)
			for _, j := range oc.perm[start:end] {
				if v := row[j]; v < -score.MaxAbsCell || v > score.MaxAbsCell {
					return fmt.Errorf("cluster: cell (%d, %d) = %d lies outside ±MaxAbsCell", x, j, v)
				}
				want.Add(int64(row[j]))
			}
		}
		if c.Stats != want {
			return fmt.Errorf("cluster: obs cluster %d stats %+v, recomputed %+v", ci, c.Stats, want)
		}
		if fresh := oc.Kernel.LogML(want); math.Float64bits(c.logML) != math.Float64bits(fresh) {
			return fmt.Errorf("cluster: obs cluster %d stored score %v (%#x), fresh evaluation %v (%#x)",
				ci, c.logML, math.Float64bits(c.logML), fresh, math.Float64bits(fresh))
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

// CoClustering is the full two-way clustering state of Algorithm 3: a
// partition of the variables into variable clusters, each of them the
// observation partition over its variables.
type CoClustering struct {
	Q *score.QData
	// Kernel scores every block, as in ObsClusters; every nested partition
	// holds the same one.
	Kernel *score.Kernel
	// Assign maps each variable to its cluster index, or -1 while
	// detached.
	Assign   []int
	Clusters []*ObsClusters
}

// NewRandomCoClustering assigns each variable to one of k0 clusters
// uniformly at random (n draws in variable order), then partitions each
// cluster's observations into obsCount random clusters (m draws per cluster,
// in cluster order), scored through kern. Empty variable clusters are
// removed. This is the random initialization of Algorithm 3, lines 3–5.
func NewRandomCoClustering(q *score.QData, kern *score.Kernel, k0, obsCount int, g *prng.MRG3) *CoClustering {
	if k0 < 1 {
		k0 = 1
	}
	if k0 > q.N {
		k0 = q.N
	}
	cc := &CoClustering{Q: q, Kernel: kern, Assign: make([]int, q.N)}
	members := make([][]int, k0)
	for x := 0; x < q.N; x++ {
		c := g.Intn(k0)
		members[c] = append(members[c], x)
	}
	for _, vars := range members {
		if len(vars) == 0 {
			continue
		}
		for _, x := range vars {
			cc.Assign[x] = len(cc.Clusters)
		}
		cc.Clusters = append(cc.Clusters, NewRandomObsClusters(q, kern, vars, obsCount, g))
	}
	return cc
}

// Score returns the total score over all blocks of all variable clusters.
func (cc *CoClustering) Score() float64 {
	var total float64
	for _, vc := range cc.Clusters {
		total += vc.Score()
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
	vc.RemoveVar(x)
	cc.Assign[x] = -1
	if len(vc.Vars) == 0 {
		cc.Clusters = slices.Delete(cc.Clusters, ci, ci+1)
		cc.renumber(ci)
	}
}

// renumber points Assign at the clusters' indices from ci on, after a
// cluster before them was removed or cluster ci gained variables.
func (cc *CoClustering) renumber(ci int) {
	for ; ci < len(cc.Clusters); ci++ {
		for _, x := range cc.Clusters[ci].Vars {
			cc.Assign[x] = ci
		}
	}
}

// GainAttachVar returns the score gain of attaching the detached variable x
// to cluster `to`; to == len(Clusters) scores a new singleton cluster
// (which starts with a single observation cluster).
func (cc *CoClustering) GainAttachVar(x, to int) float64 {
	row := cc.Q.Row(x)
	if to == len(cc.Clusters) {
		return cc.Kernel.LogML(score.StatsOf(row))
	}
	vc := cc.Clusters[to]
	var gain float64
	for ci, c := range vc.Clusters {
		var part score.Stats
		for _, j := range vc.Obs(ci) {
			part.Add(int64(row[j]))
		}
		gain += cc.Kernel.LogML(c.Stats.Plus(part)) - c.logML
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
		cc.Clusters = append(cc.Clusters, newSingleObsCluster(cc.Q, cc.Kernel, []int{x}))
	} else {
		cc.Clusters[to].AddVar(x)
	}
	cc.Assign[x] = to
}

// VarColumnStats returns the per-observation statistics of the cells of
// vars — a merge source's variables, or the one detached variable of an
// attach-var decision — the precomputation that makes each candidate
// evaluable in O(m + L) instead of O(|vars|·m). It fills dst, grown to m
// entries when it is shorter, so a caller reuses one buffer across
// decisions; every cols[j].N is len(vars).
func (cc *CoClustering) VarColumnStats(dst []score.Stats, vars ...int) []score.Stats {
	if cap(dst) < cc.Q.M {
		dst = make([]score.Stats, cc.Q.M)
	}
	cols := dst[:cc.Q.M]
	clear(cols)
	for _, x := range vars {
		row := cc.Q.Row(x)
		for j, v := range row {
			cols[j].Add(int64(v))
		}
	}
	return cols
}

// GainMergeVar returns the score gain of merging variable cluster src into
// dst, where the merged cluster keeps dst's observation partition. cols must
// be VarColumnStats of src's variables. Returns 0 for src == dst (retain).
func (cc *CoClustering) GainMergeVar(cols []score.Stats, src, dst int) float64 {
	if src == dst {
		return 0
	}
	dc := cc.Clusters[dst]
	var gain float64
	for ci, c := range dc.Clusters {
		var part score.Stats
		for _, j := range dc.Obs(ci) {
			part.Merge(cols[j])
		}
		gain += cc.Kernel.LogML(c.Stats.Plus(part)) - c.logML
	}
	for _, c := range cc.Clusters[src].Clusters {
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
	for _, x := range cc.Clusters[src].Vars {
		cc.Clusters[dst].AddVar(x)
	}
	cc.Clusters = slices.Delete(cc.Clusters, src, src+1)
	cc.renumber(min(src, dst))
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
		for _, x := range vc.Vars {
			if seen[x] != -1 {
				return fmt.Errorf("cluster: variable %d in clusters %d and %d", x, seen[x], ci)
			}
			seen[x] = ci
			if cc.Assign[x] != ci {
				return fmt.Errorf("cluster: variable %d assigned %d, member of %d", x, cc.Assign[x], ci)
			}
		}
		if err := vc.CheckInvariants(); err != nil {
			return fmt.Errorf("cluster %d: %w", ci, err)
		}
	}
	return nil
}

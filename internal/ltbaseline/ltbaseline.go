// Package ltbaseline is the reference ("Lemon-Tree-style") sequential
// implementation used as the Table 1 baseline. It executes exactly the same
// algorithm as the optimized engine — same decision order, same PRNG
// consumption, same quantized sampling weights — but computes every score by
// rescanning the raw data cells of the blocks involved, the way the original
// Lemon-Tree recomputes statistics per evaluation, instead of maintaining
// incremental sufficient statistics and per-node caches.
//
// Because sufficient statistics are exact integers (package score), the
// rescanned statistics are bit-identical to the optimized engine's cached
// ones, so the two engines learn exactly the same network from the same seed
// — the property the paper verifies between Lemon-Tree and its optimized
// C++ implementation (§4.1, §5.2.1) — while differing by a constant-factor
// amount of work.
//
// This package intentionally duplicates the decision loops of the optimized
// engine rather than sharing them: the paper's verification is between two
// independent implementations, and so is ours.
package ltbaseline

import (
	"math"
	"sort"

	"parsimone/internal/cluster"
	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/ganesh"
	"parsimone/internal/module"
	"parsimone/internal/prng"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/trace"
	"parsimone/internal/tree"
)

// blockStats rescans the raw cells of a (vars × obs) block.
func blockStats[J int | int32](q *score.QData, vars []int, obs []J) score.Stats {
	var s score.Stats
	for _, x := range vars {
		row := q.Row(x)
		for _, j := range obs {
			s.Add(int64(row[j]))
		}
	}
	return s
}

// rowPart rescans variable x's cells over obs.
func rowPart(q *score.QData, x int, obs []int32) score.Stats {
	var s score.Stats
	row := q.Row(x)
	for _, j := range obs {
		s.Add(int64(row[j]))
	}
	return s
}

// decide mirrors the optimized engine's collective decision: quantized
// weights from gains, one weighted draw.
func decide(g *prng.MRG3, gains []float64) int {
	weights := score.QuantizeWeights(gains)
	s := g.WeightedIndex(weights)
	if s < 0 {
		s = len(gains) - 1
	}
	return s
}

// gibbs runs the GaneSH update loops with rescanning score evaluation. The
// cluster state object is reused for membership bookkeeping only; its cached
// statistics are deliberately not consulted for scoring.
type gibbs struct {
	q *score.QData
	// k is the precomputed scoring kernel of the prior — bit-identical to
	// Prior.LogML (score.Kernel), so the baseline keeps its rescanning
	// character while scoring through the same tables as the engines.
	k *score.Kernel
	g *prng.MRG3
}

func (e *gibbs) gainAttachVar(cc *cluster.CoClustering, x, to int) float64 {
	if to == len(cc.Clusters) {
		return e.k.LogML(score.StatsOf(e.q.Row(x)))
	}
	vc := cc.Clusters[to]
	var gain float64
	for ci := range vc.Clusters {
		b := blockStats(e.q, vc.Vars, vc.Obs(ci))
		part := rowPart(e.q, x, vc.Obs(ci))
		gain += e.k.LogML(b.Plus(part)) - e.k.LogML(b)
	}
	return gain
}

func (e *gibbs) gainMergeVar(cc *cluster.CoClustering, src, dst int) float64 {
	if src == dst {
		return 0
	}
	sc, dc := cc.Clusters[src], cc.Clusters[dst]
	var gain float64
	for ci := range dc.Clusters {
		b := blockStats(e.q, dc.Vars, dc.Obs(ci))
		part := blockStats(e.q, sc.Vars, dc.Obs(ci))
		gain += e.k.LogML(b.Plus(part)) - e.k.LogML(b)
	}
	for ci := range sc.Clusters {
		gain -= e.k.LogML(blockStats(e.q, sc.Vars, sc.Obs(ci)))
	}
	return gain
}

func (e *gibbs) gainAttachObs(oc *cluster.ObsClusters, j, to int) float64 {
	col := rowColumn(e.q, oc.Vars, j)
	if to == len(oc.Clusters) {
		return e.k.LogML(col)
	}
	b := blockStats(e.q, oc.Vars, oc.Obs(to))
	return e.k.LogML(b.Plus(col)) - e.k.LogML(b)
}

func (e *gibbs) gainMergeObs(oc *cluster.ObsClusters, i, j int) float64 {
	if i == j {
		return 0
	}
	a := blockStats(e.q, oc.Vars, oc.Obs(i))
	b := blockStats(e.q, oc.Vars, oc.Obs(j))
	return e.k.LogML(a.Plus(b)) - e.k.LogML(a) - e.k.LogML(b)
}

// rowColumn rescans observation j's cells over vars.
func rowColumn(q *score.QData, vars []int, j int) score.Stats {
	var s score.Stats
	for _, x := range vars {
		s.Add(q.At(x, j))
	}
	return s
}

func (e *gibbs) reassignVars(cc *cluster.CoClustering) {
	n := e.q.N
	for it := 0; it < n; it++ {
		r := e.g.Intn(n)
		cc.DetachVar(r)
		k := len(cc.Clusters)
		gains := make([]float64, k+1)
		for i := range gains {
			gains[i] = e.gainAttachVar(cc, r, i)
		}
		cc.AttachVar(r, decide(e.g, gains))
	}
}

func (e *gibbs) mergeVars(cc *cluster.CoClustering) {
	for i := 0; i < len(cc.Clusters); {
		k := len(cc.Clusters)
		gains := make([]float64, k)
		for j := range gains {
			gains[j] = e.gainMergeVar(cc, i, j)
		}
		s := decide(e.g, gains)
		if s != i {
			cc.MergeVar(i, s)
		} else {
			i++
		}
	}
}

func (e *gibbs) reassignObs(oc *cluster.ObsClusters) {
	m := e.q.M
	for it := 0; it < m; it++ {
		r := e.g.Intn(m)
		oc.DetachObs(r)
		l := len(oc.Clusters)
		gains := make([]float64, l+1)
		for i := range gains {
			gains[i] = e.gainAttachObs(oc, r, i)
		}
		oc.AttachObs(r, decide(e.g, gains))
	}
}

func (e *gibbs) mergeObs(oc *cluster.ObsClusters) {
	for i := 0; i < len(oc.Clusters); {
		l := len(oc.Clusters)
		gains := make([]float64, l)
		for j := range gains {
			gains[j] = e.gainMergeObs(oc, i, j)
		}
		s := decide(e.g, gains)
		if s != i {
			oc.MergeObs(i, s)
		} else {
			i++
		}
	}
}

// Lemon-Tree's bootstrap early stop, as splits runs it: a threshold may
// retire from minSteps resamples on, once its posterior's confidence
// half-width is below ciHalfWidth.
const (
	minSteps    = 8
	ciHalfWidth = 0.08
)

// initObsClusters is L₀ = ⌈√m⌉, Lemon-Tree's initial number of observation
// clusters per variable cluster.
func initObsClusters(m int) int {
	l0 := 1
	for l0*l0 < m {
		l0++
	}
	return l0
}

// runGaneSH mirrors ganesh.Run, from K₀ = max(1, n/2) variable clusters.
func (e *gibbs) runGaneSH(par ganesh.Params) *cluster.CoClustering {
	updates := par.Updates
	if updates == 0 {
		updates = 1
	}
	cc := cluster.NewRandomCoClustering(e.q, e.k, max(1, e.q.N/2), initObsClusters(e.q.M), e.g)
	for u := 0; u < updates; u++ {
		e.reassignVars(cc)
		e.mergeVars(cc)
		for vi := 0; vi < len(cc.Clusters); vi++ {
			e.reassignObs(cc.Clusters[vi])
			e.mergeObs(cc.Clusters[vi])
		}
	}
	return cc
}

// sampleObs mirrors ganesh.SampleObsClusterings.
func (e *gibbs) sampleObs(vars []int, par ganesh.ObsParams) [][][]int {
	updates := par.Updates
	if updates == 0 {
		updates = 1
	}
	oc := cluster.NewRandomObsClusters(e.q, e.k, vars, initObsClusters(e.q.M), e.g)
	var samples [][][]int
	for u := 1; u <= updates; u++ {
		e.reassignObs(oc)
		e.mergeObs(oc)
		if u > par.Burnin {
			samples = append(samples, oc.Snapshot())
		}
	}
	return samples
}

// buildTree mirrors tree.Build with rescanned merge scores.
func (e *gibbs) buildTree(vars []int, clusters [][]int) *tree.Tree {
	subtrees := make([]*tree.Node, len(clusters))
	for i, cl := range clusters {
		obs := append([]int(nil), cl...)
		sort.Ints(obs)
		subtrees[i] = &tree.Node{Obs: obs, Stats: blockStats(e.q, vars, obs)}
	}
	for len(subtrees) > 1 {
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < len(subtrees)-1; i++ {
			a := blockStats(e.q, vars, subtrees[i].Obs)
			b := blockStats(e.q, vars, subtrees[i+1].Obs)
			s := e.k.LogML(a.Plus(b)) - e.k.LogML(a) - e.k.LogML(b)
			if s > bestScore {
				bestScore, best = s, i
			}
		}
		a, b := subtrees[best], subtrees[best+1]
		obs := append(append([]int(nil), a.Obs...), b.Obs...)
		sort.Ints(obs)
		merged := &tree.Node{Obs: obs, Stats: a.Stats.Plus(b.Stats), Left: a, Right: b}
		subtrees[best] = merged
		subtrees = append(subtrees[:best+1], subtrees[best+2:]...)
	}
	return &tree.Tree{Root: subtrees[0], Vars: append([]int(nil), vars...)}
}

// learnSplits mirrors splits.Learn — same pair stream layout, same shared
// resamples — but rescans module cells per threshold and bootstrap step
// instead of using precomputed per-observation column statistics.
func (e *gibbs) learnSplits(moduleVars [][]int, trees [][]*tree.Tree, par splits.Params) splits.Result {
	// Defaults are configuration, not algorithm: shared with the engines.
	par = par.WithDefaults(e.q.N)
	cands := par.Candidates

	type nodeRef struct {
		module, treeIdx, nodeIdx int
		node                     *tree.Node
		offset, count            int
	}
	var nodes []*nodeRef
	offset := 0
	for mi := range trees {
		for ti, tr := range trees[mi] {
			for niIdx, n := range tr.InternalNodes() {
				ref := &nodeRef{module: mi, treeIdx: ti, nodeIdx: niIdx, node: n,
					offset: offset, count: len(cands) * len(n.Obs)}
				nodes = append(nodes, ref)
				offset += ref.count
			}
		}
	}
	total := offset

	// One substream per ⟨node, parent⟩ pair, numbered by the pair's first
	// global candidate index (splits.StreamLayout 2).
	base := e.g.Clone()
	posteriors := make([]float64, 0, total)
	for _, ref := range nodes {
		nObs := len(ref.node.Obs)
		for pi, parent := range cands {
			sub := base.Substream(uint64(ref.offset + pi*nObs))
			posteriors = append(posteriors, e.pairPosteriors(moduleVars[ref.module], ref.node, parent,
				sub, par.MaxSteps)...)
		}
	}

	var res splits.Result
	for _, ref := range nodes {
		ps := posteriors[ref.offset : ref.offset+ref.count]
		weights := make([]uint64, len(ps))
		var retained []int
		for i, p := range ps {
			// Shared grid with the splits package's scan (score.QuantizeProb): the
			// baseline must consume the PRNG stream identically to the
			// optimized engines or the bit-identity check is meaningless.
			weights[i] = score.QuantizeProb(p)
			if p > 0 {
				retained = append(retained, i)
			}
		}
		if len(retained) == 0 {
			continue
		}
		mk := func(local int) splits.Assigned {
			nObs := len(ref.node.Obs)
			parent := cands[local/nObs]
			return splits.Assigned{
				Module: ref.module, Tree: ref.treeIdx, Node: ref.nodeIdx,
				Parent:    parent,
				Value:     e.q.At(parent, ref.node.Obs[local%nObs]),
				Posterior: ps[local],
				NodeObs:   nObs,
			}
		}
		for s := 0; s < par.NumSplits; s++ {
			res.Weighted = append(res.Weighted, mk(e.g.WeightedIndex(weights)))
		}
		for s := 0; s < par.NumSplits; s++ {
			res.Uniform = append(res.Uniform, mk(retained[e.g.Intn(len(retained))]))
		}
	}
	return res
}

// pairPosteriors mirrors the optimized pair evaluator's stream layout the
// naive way: the pair's thresholds share one resample per step — nObs scalar
// draws from the pair's substream — but every live threshold rescans it,
// re-reading the module's raw cells for each pick and re-deciding its side,
// where the optimized engine bucket-sums the resample once. Thresholds retire
// individually on the confidence rule; drawing stops with the last one.
func (e *gibbs) pairPosteriors(vars []int, node *tree.Node, parent int,
	sub *prng.MRG3, maxSteps int) []float64 {
	nObs := len(node.Obs)
	prow := e.q.Row(parent)
	post := make([]float64, nObs)
	successes := make([]int, nObs)
	// Degenerate thresholds (nothing falls right) keep posterior 0 and
	// never go live.
	var live []int
	for k, j := range node.Obs {
		for _, j2 := range node.Obs {
			if prow[j2] > prow[j] {
				live = append(live, k)
				break
			}
		}
	}
	picks := make([]int, nObs)
	for steps := 1; len(live) > 0; steps++ {
		for i := range picks {
			picks[i] = sub.Intn(nObs)
		}
		n := 0
		for _, k := range live {
			value := prow[node.Obs[k]]
			var ls, rs score.Stats
			for _, pick := range picks {
				j := node.Obs[pick]
				col := rowColumn(e.q, vars, j) // rescan: no cached column stats
				if prow[j] <= value {
					ls.Merge(col)
				} else {
					rs.Merge(col)
				}
			}
			delta := e.k.LogML(ls) + e.k.LogML(rs) - e.k.LogML(ls.Plus(rs))
			if delta > 0 {
				successes[k]++
			}
			done := steps >= maxSteps
			if !done && steps >= minSteps {
				phat := float64(successes[k]) / float64(steps)
				hw := 1.96 * math.Sqrt(phat*(1-phat)/float64(steps))
				done = hw < ciHalfWidth
			}
			if done {
				post[k] = float64(successes[k]) / float64(steps)
			} else {
				live[n] = k
				n++
			}
		}
		live = live[:n]
	}
	return post
}

// scoreParents mirrors module.Learn's parent aggregation.
func scoreParents(assigned []splits.Assigned, mi int) []module.ParentScore {
	type acc struct {
		num, den float64
		count    int
	}
	byParent := map[int]*acc{}
	for _, a := range assigned {
		if a.Module != mi {
			continue
		}
		s := byParent[a.Parent]
		if s == nil {
			s = &acc{}
			byParent[a.Parent] = s
		}
		w := float64(a.NodeObs)
		s.num += a.Posterior * w
		s.den += w
		s.count++
	}
	out := make([]module.ParentScore, 0, len(byParent))
	for parent, s := range byParent {
		out = append(out, module.ParentScore{Parent: parent, Score: s.num / s.den, Count: s.count})
	}
	sort.Slice(out, func(i, j int) bool {
		//parsivet:floateq — exact compare of identical-provenance scores; ties break on Parent
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Parent < out[j].Parent
	})
	return out
}

// Learn runs the full reference pipeline, mirroring core.Learn step for
// step. The returned network is bit-identical to the optimized engines'
// output for the same data and options.
func Learn(d *dataset.Data, opt core.Options) (*core.Output, error) {
	if err := core.Check(1, d, opt); err != nil {
		return nil, err
	}
	_, q, err := core.Fit(d)
	if err != nil {
		return nil, err
	}
	// One kernel for the whole run: the rescanned blocks never exceed the
	// full data matrix, so n·m tables every count the baseline can score.
	kern := score.NewKernel(opt.Prior, q.N*q.M)
	timers := trace.NewTimers()
	master := prng.New(opt.Seed)

	var ensembles [][][]int
	timers.Time(core.TaskGaneSH, func() {
		for r := 0; r < opt.GaneshRuns; r++ {
			e := &gibbs{q: q, k: kern, g: master.Substream(uint64(r + 1))}
			cc := e.runGaneSH(opt.Ganesh)
			ensembles = append(ensembles, cc.VarSnapshot())
		}
	})

	var moduleVars [][]int
	var consErr error
	timers.Time(core.TaskConsensus, func() {
		a := ganesh.CoOccurrence(q.N, ensembles, opt.CoOccurrenceThreshold)
		moduleVars, consErr = consensusClusters(q.N, a)
	})
	if consErr != nil {
		return nil, consErr
	}

	var modules []*module.Module
	timers.Time(core.TaskModules, func() {
		gTask := master.Substream(uint64(opt.GaneshRuns + 1))
		var allW, allU []splits.Assigned
		for mi, vars := range moduleVars {
			// One numbered substream per module, mirroring module.learn's
			// checkpointable per-module units: each module's trees and
			// splits depend only on its own index and members.
			e := &gibbs{q: q, k: kern, g: gTask.Substream(uint64(mi + 1))}
			mod := &module.Module{Vars: append([]int(nil), vars...)}
			for _, clusters := range e.sampleObs(vars, opt.Module.Tree) {
				mod.Trees = append(mod.Trees, e.buildTree(vars, clusters))
			}
			modules = append(modules, mod)
			sp := e.learnSplits([][]int{vars}, [][]*tree.Tree{mod.Trees}, opt.Module.Splits)
			for _, a := range sp.Weighted {
				a.Module = mi
				allW = append(allW, a)
			}
			for _, a := range sp.Uniform {
				a.Module = mi
				allU = append(allU, a)
			}
		}
		for mi, mod := range modules {
			mod.ParentsWeighted = scoreParents(allW, mi)
			mod.ParentsUniform = scoreParents(allU, mi)
		}
	})

	net := &result.Network{N: d.N, M: d.M, Names: append([]string(nil), d.Names...)}
	for mi, mod := range modules {
		rm := result.Module{ID: mi, Variables: append([]int(nil), mod.Vars...)}
		for _, v := range rm.Variables {
			rm.VariableNames = append(rm.VariableNames, d.Names[v])
		}
		for _, ps := range mod.ParentsWeighted {
			rm.Parents = append(rm.Parents, result.Parent{
				Index: ps.Parent, Name: d.Names[ps.Parent], Score: ps.Score, Count: ps.Count,
			})
		}
		for _, ps := range mod.ParentsUniform {
			rm.ParentsUniform = append(rm.ParentsUniform, result.Parent{
				Index: ps.Parent, Name: d.Names[ps.Parent], Score: ps.Score, Count: ps.Count,
			})
		}
		net.Modules = append(net.Modules, rm)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return &core.Output{Network: net, Modules: modules, Timers: timers}, nil
}

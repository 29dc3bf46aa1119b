// The pair evaluator — the one posterior loop of the package (DESIGN §18).
//
// The unit of randomness is the ⟨node, parent⟩ pair: its nObs thresholds
// share one numbered substream and one bootstrap resample per step. A
// resample is bucket-accumulated by threshold group and prefix-summed, so
// every live distinct threshold reads its left block in O(1) and a pair-step
// costs O(nObs + live) instead of O(nObs · live). The unit of distribution
// stays the candidate: eval scores any half-open range of the global list,
// and a range that cuts a pair evaluates only its own thresholds while
// replaying the pair's draws from the start of the pair's substream.
// Liveness decides when drawing stops, never what is drawn, so a
// threshold's posterior is a function of (pair substream, threshold) alone
// and every p × W × strategy yields identical bits.

package splits

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"parsimone/internal/comm"
	"parsimone/internal/obs"
	"parsimone/internal/pool"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/trace"
	"parsimone/internal/tree"
)

// StreamLayout versions the mapping from candidate splits to PRNG draws. It
// is result-affecting and deliberately not configurable: layout 1 numbered a
// substream per candidate, layout 2 (this code) numbers one per ⟨node,
// parent⟩ pair by the pair's first global candidate index. Checkpoints and
// the serve cache key carry it so results of different layouts never mix.
const StreamLayout = 2

// drawCost is the cost-model weight of a bootstrap pick — MRG3 draw, bounded
// reduction, bucket accumulate — half a block score. The weights were fitted
// when a threshold-step cost two memoised logML lookups; a certified decision
// is cheaper than that, so candCost now over-charges the thresholds relative
// to the draws, uniformly over the candidates. They stay as recorded (the
// workload digests pin them) until ROADMAP item 3(b) re-weighs each phase.
const drawCost = trace.LogMLCost / 2

// candCost is a candidate's own share of the recorded cost: two block
// scores per bootstrap step it stayed live.
func candCost(steps int) float64 { return float64(steps * 2 * trace.LogMLCost) }

// pairCost is the cost the thresholds of a pair share — the column gather
// and sort, then per pair-step one nObs-pick resample and the total's score.
// It is carried by the pair's first candidate. A range that cuts a pair
// replays draws the model does not charge: at most p−1 pairs per learn call.
func pairCost(pairSteps, nObs int) float64 {
	return float64(nObs + pairSteps*(nObs*drawCost+trace.LogMLCost))
}

// fragCost is the recorded cost of the pair fragment whose candidates
// consumed steps; first says whether it holds the pair's first candidate.
func fragCost(steps []int, nObs int, first bool) float64 {
	var cost float64
	for _, s := range steps {
		cost += candCost(s)
	}
	if first {
		cost += pairCost(slices.Max(steps), nObs)
	}
	return cost
}

// nodeRef is one internal node in the global enumeration, with its
// per-observation column statistics cached.
type nodeRef struct {
	module, treeIdx, nodeIdx int
	node                     *tree.Node
	// offset is the node's first index in the global candidate list;
	// count its number of candidates (|P|·|Obs|), parent-major: nObs
	// consecutive candidates share ⟨node, parent⟩.
	offset, count int
	// colStats[k] covers the module's variables at observation Obs[k].
	colStats []score.Stats
}

// assigned materializes the node's local-th candidate, whose posterior is p,
// as an assigned split.
func (ref *nodeRef) assigned(q *score.QData, candParents []int, local int, p float64) Assigned {
	nObs := len(ref.node.Obs)
	parent := candParents[local/nObs]
	return Assigned{
		Module: ref.module, Tree: ref.treeIdx, Node: ref.nodeIdx,
		Parent:    parent,
		Value:     q.At(parent, ref.node.Obs[local%nObs]),
		Posterior: p,
		NodeObs:   nObs,
	}
}

// enumerate builds the canonical global node list and candidate offsets.
// trees[mi] is the ensemble for module mi over vars modules[mi].
func enumerate(q *score.QData, modules [][]int, trees [][]*tree.Tree, candParents []int) []*nodeRef {
	var nodes []*nodeRef
	offset := 0
	for mi := range trees {
		for ti, tr := range trees[mi] {
			for ni, n := range tr.InternalNodes() {
				ref := &nodeRef{
					module: mi, treeIdx: ti, nodeIdx: ni, node: n,
					offset: offset, count: len(candParents) * len(n.Obs),
				}
				ref.colStats = make([]score.Stats, len(n.Obs))
				for k, j := range n.Obs {
					for _, x := range modules[mi] {
						ref.colStats[k].Add(q.At(x, j))
					}
				}
				nodes = append(nodes, ref)
				offset += ref.count
			}
		}
	}
	return nodes
}

// nodeIndexAt returns the index in nodes of the node owning global candidate
// ci (nodes' [offset, offset+count) ranges tile the candidate list).
func nodeIndexAt(nodes []*nodeRef, ci int) int {
	return sort.Search(len(nodes), func(i int) bool {
		return nodes[i].offset+nodes[i].count > ci
	})
}

// stopTable hoists the early-termination rule out of the hot loop:
// stop[s·(maxSteps+1)+k] says whether a threshold with k successes after s
// steps retires — at maxSteps always, from minSteps on once the
// normal-approximation confidence half-width drops below ciHalfWidth.
func stopTable(maxSteps int) []bool {
	w := maxSteps + 1
	stop := make([]bool, w*w)
	for s := 1; s <= maxSteps; s++ {
		for k := 0; k <= s; k++ {
			done := s == maxSteps
			if !done && s >= minSteps {
				phat := float64(k) / float64(s)
				hw := 1.96 * math.Sqrt(phat*(1-phat)/float64(s))
				done = hw < ciHalfWidth
			}
			stop[s*w+k] = done
		}
	}
	return stop
}

// scratch is one worker's reusable buffers, allocation-free per pair, plus
// its exact work counters.
type scratch struct {
	// pobs[k] is the parent's quantized value at the node's k-th
	// observation; order the slots sorted by that value; grp[k] slot k's
	// threshold group — its rank among the column's distinct values. Slots
	// of one group are the same threshold and are scored once; a pick lands
	// left of group d's threshold iff its own group is ≤ d, and the last
	// group sends everything left (a degenerate split: posterior 0, no
	// draws).
	pobs  []int64
	order []int32
	grp   []int32
	// picks receives one step's draws; bkt the per-group resample sums,
	// prefix-summed in place into each threshold's left block.
	picks []int
	bkt   []score.Stats
	// groups is the per-threshold-group state; live lists the groups still
	// drawing, ascending.
	groups []group
	live   []int32
	// lane, idx and dec are one pair-step's decision lanes: lane[j] the
	// index in dec of live[j]'s answer, idx each lane's group, and dec[1:]
	// their Kernel.SplitsImprove answers after dec[0], which stays 0.
	lane, idx []int32
	dec       []score.Decision
	// pairSteps and draws count resamples and bootstrap picks; decisions the
	// threshold-steps (one per live threshold per pair-step), of which empty
	// had nothing on one side, repeated had the previous live threshold's
	// left block, and exactFallbacks were scored exactly because the
	// certified test could not tell — the rest were certified; tableMisses
	// is the Kernel.LogML calls SplitsImprove made outside the table. cands
	// is the candidates scored in the current eval call.
	pairSteps, draws, cands                                 int64
	decisions, empty, repeated, exactFallbacks, tableMisses int64
}

// group is one distinct threshold of the pair being evaluated: whether the
// evaluated range asks for it, its success count, and once retired its step
// count and posterior.
type group struct {
	want        bool
	succ, steps int32
	post        float64
}

// grow sizes the per-observation buffers for a node with nObs observations.
func (sc *scratch) grow(nObs int) {
	if cap(sc.pobs) < nObs {
		sc.pobs = make([]int64, nObs)
		sc.order = make([]int32, nObs)
		sc.grp = make([]int32, nObs)
		sc.picks = make([]int, nObs)
		sc.bkt = make([]score.Stats, nObs)
		sc.groups = make([]group, nObs)
		sc.live = make([]int32, nObs)
		sc.lane = make([]int32, nObs)
		sc.idx = make([]int32, nObs)
		sc.dec = make([]score.Decision, nObs+1)
	}
	sc.pobs, sc.order, sc.grp, sc.picks = sc.pobs[:nObs], sc.order[:nObs], sc.grp[:nObs], sc.picks[:nObs]
}

// fillPair gathers the parent column over the node's observations, sorts it
// once for the pair's nObs thresholds, and numbers the threshold groups. It
// returns the group count.
func (sc *scratch) fillPair(q *score.QData, ref *nodeRef, parent int) int {
	sc.grow(len(ref.node.Obs))
	prow := q.Row(parent)
	for k, j := range ref.node.Obs {
		sc.pobs[k] = int64(prow[j])
		sc.order[k] = int32(k)
	}
	pobs := sc.pobs
	slices.SortFunc(sc.order, func(a, b int32) int { return cmp.Compare(pobs[a], pobs[b]) })
	last := int32(0)
	for i, k := range sc.order {
		if i > 0 && pobs[k] != pobs[sc.order[i-1]] {
			last++
		}
		sc.grp[k] = last
	}
	return int(last) + 1
}

// evaluator scores ranges of one learn call's global candidate list on one
// rank. Both schedules evaluate through it.
type evaluator struct {
	rc    rank.Context
	q     *score.QData
	par   Params // defaults applied
	nodes []*nodeRef
	total int
	// base is the stream the pair substreams are numbered from; kern the
	// learn's read-only scoring kernel, which other ranks may read at the
	// same time and whose table must cover |Obs|·|module| counts so the hot
	// loop never takes the fallback path; stop the early-termination table.
	base      *prng.MRG3
	kern      *score.Kernel
	stop      []bool
	scratches []*scratch
}

func newEvaluator(rc rank.Context, q *score.QData, kern *score.Kernel, modules [][]int, trees [][]*tree.Tree, par Params, g *prng.MRG3) *evaluator {
	par = par.WithDefaults(q.N)
	ev := &evaluator{rc: rc, q: q, par: par, nodes: enumerate(q, modules, trees, par.Candidates), base: g.Clone(), kern: kern, stop: stopTable(par.MaxSteps)}
	for _, ref := range ev.nodes {
		ev.total += ref.count
	}
	// One scratch per pool worker, allocated separately so workers never
	// write into a shared cache line.
	ev.scratches = make([]*scratch, max(1, rc.Workers))
	for w := range ev.scratches {
		ev.scratches[w] = &scratch{}
	}
	return ev
}

// pairAt returns the global pair index of candidate ci: every node has one
// pair per candidate parent, so pair g belongs to node g/|P|, parent g%|P|.
func (ev *evaluator) pairAt(ci int) int {
	ni := nodeIndexAt(ev.nodes, ci)
	ref := ev.nodes[ni]
	return ni*len(ev.par.Candidates) + (ci-ref.offset)/len(ref.node.Obs)
}

// alignUp returns the first pair boundary at or after candidate index ci.
func (ev *evaluator) alignUp(ci int) int {
	if ci >= ev.total {
		return ev.total
	}
	ref := ev.nodes[nodeIndexAt(ev.nodes, ci)]
	nObs := len(ref.node.Obs)
	return ref.offset + (ci-ref.offset+nObs-1)/nObs*nObs
}

// chunkStart is the first candidate of chunk k of the dynamic schedule,
// alignUp(k·chunk), or the list's end once that is past it: a chunk's
// bounds depend on k alone and end on pair boundaries. k·chunk is only
// formed while it is below the list's end, so it cannot overflow.
func (ev *evaluator) chunkStart(chunk, k int) int {
	if k > (ev.total-1)/chunk {
		return ev.total
	}
	return ev.alignUp(k * chunk)
}

// eval scores the candidates [lo, hi) of the global list on the intra-rank
// worker pool, one pool item per pair (the first and last possibly cut to
// fragments by the range). It returns their posteriors and consumed steps,
// indexed from lo, and the pool's per-worker counters with Items counting
// candidates. Workers write disjoint slots, so the fill is order-free.
func (ev *evaluator) eval(lo, hi int) (post []float64, steps []int, st pool.Stats) {
	post, steps = make([]float64, hi-lo), make([]int, hi-lo)
	if hi <= lo {
		return post, steps, pool.For(0, 1, 1, nil)
	}
	for _, sc := range ev.scratches {
		sc.cands = 0
	}
	np := len(ev.par.Candidates)
	g0 := ev.pairAt(lo)
	st = pool.For(ev.pairAt(hi-1)+1-g0, ev.rc.Workers, 1, func(i, w int) float64 {
		ref, pi := ev.nodes[(g0+i)/np], (g0+i)%np
		nObs := len(ref.node.Obs)
		if nObs == 0 {
			return 0 // a node without observations has no candidates
		}
		first := ref.offset + pi*nObs
		from, to := max(lo, first), min(hi, first+nObs)
		sc := ev.scratches[w]
		sc.cands += int64(to - from)
		ev.evalPair(sc, ref, pi, from-first, to-first, post[from-lo:to-lo], steps[from-lo:to-lo])
		return fragCost(steps[from-lo:to-lo], nObs, from == first)
	})
	for w := range st.Items {
		st.Items[w] = ev.scratches[w].cands
	}
	return post, steps, st
}

// evalPair runs the bootstrap of pair ⟨ref, Candidates[pi]⟩ for its
// thresholds at slots [from, to), writing their posteriors and step counts.
// Every step draws one resample from the pair's substream whichever slots
// are asked for; thresholds retire individually on the stop table, and the
// drawing ends when none of the requested ones is live.
func (ev *evaluator) evalPair(sc *scratch, ref *nodeRef, pi, from, to int, post []float64, steps []int) {
	nObs := len(ref.node.Obs)
	groups := sc.fillPair(ev.q, ref, ev.par.Candidates[pi])
	grp, bkt, picks, gs := sc.grp, sc.bkt[:groups], sc.picks, sc.groups[:groups]
	clear(gs)
	for _, d := range grp[from:to] {
		gs[d].want = true
	}
	live := sc.live[:0]
	for d := range gs[:groups-1] {
		if gs[d].want {
			live = append(live, int32(d))
		}
	}

	sub := ev.base.Substream(uint64(ref.offset + pi*nObs))
	draw := prng.NewUniform(nObs)
	cols, kern, w := ref.colStats, ev.kern, ev.par.MaxSteps+1
	step := 0
	for len(live) > 0 {
		step++
		draw.Fill(sub, picks)
		clear(bkt)
		for _, pick := range picks {
			bkt[grp[pick]].Merge(cols[pick])
		}
		// The running block stays in registers: merging into bkt[d] from
		// bkt[d-1] would reload the block just stored.
		run := bkt[0]
		for d := 1; d < groups; d++ {
			run.Merge(bkt[d])
			bkt[d] = run
		}
		tot := bkt[groups-1]
		sc.decisions += int64(len(live))
		// Classify the live thresholds by their left block's count, an
		// exact test because bkt is a prefix sum and every pick adds the
		// module's variable count. An empty side (N == 0 or N == tot.N; as
		// 0 ≤ N ≤ tot.N, one unsigned compare) is 0 + logML(tot) −
		// logML(tot), not above zero. A count equal to the previous live
		// threshold's means no pick fell between the two, so the block and
		// the answer are the previous one's. The rest are the step's
		// decision lanes, answered in dec[1:]: lane[j] is live[j]'s index
		// in dec, 0 — a constant "no" — for an empty side. Both loops are
		// branch-free where the outcome is data.
		lane, idx := sc.lane[:len(live)], sc.idx[:len(live)]
		lanes, last, empty := 0, int32(0), 0
		var prevN int64
		for j, d := range live {
			n := bkt[d].N
			l := int32(lanes + 1)
			if n == prevN {
				l = last
			}
			e := uint64(n-1) >= uint64(tot.N-1)
			if e {
				l = 0
			}
			empty += b2i(e)
			idx[lanes] = d
			lanes += b2i(l > int32(lanes))
			lane[j], last, prevN = l, l, n
		}
		sc.empty += int64(empty)
		sc.repeated += int64(len(live) - empty - lanes)
		dec := sc.dec[:1+lanes]
		fallbacks, misses := kern.SplitsImprove(dec[1:], bkt, idx[:lanes], tot)
		sc.exactFallbacks += int64(fallbacks)
		sc.tableMisses += int64(misses)
		n := 0
		for j, d := range live {
			g := &gs[d]
			g.succ += int32(dec[lane[j]] & score.Improves)
			if ev.stop[step*w+int(g.succ)] {
				g.steps, g.post = int32(step), float64(g.succ)/float64(step)
				continue
			}
			live[n] = d
			n++
		}
		live = live[:n]
	}
	sc.pairSteps += int64(step)
	sc.draws += int64(step * nObs)
	for k, d := range grp[from:to] {
		post[k], steps[k] = gs[d].post, int(gs[d].steps)
	}
}

// b2i is 1 for true and 0 for false, which the compiler emits without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// observe reports this rank's block evaluation to the attached hooks: the
// pool cost and worker imbalance events, the split metrics, and the ranks'
// pool costs gathered into the rank-imbalance event (emitted by rank 0). It
// communicates only when observed — on every rank or on none — so runs
// without events or metrics, work-recording ones included, perform no extra
// collective.
func (ev *evaluator) observe(st pool.Stats, steps []int) {
	h, c := ev.rc.Hooks, ev.rc.Comm
	if !h.Observed() {
		return
	}
	h.PoolCost(PhaseAssign, st)
	h.WorkerImbalance(PhaseAssign, st)
	ev.recordMetrics(h.Registry(), steps)
	var localCost float64
	for _, cost := range st.Cost {
		localCost += cost
	}
	if perRank := comm.AllGather(c, localCost); c.Rank() == 0 {
		h.RankImbalance(PhaseAssign, perRank)
	}
}

// recordMetrics records the result-invisible split-phase metrics of the
// candidates this evaluator scored, whose per-candidate step counts are
// steps. Every strategy goes through it, so same-seed runs that differ only
// in the exchange strategy dump identical split_steps. A threshold-step — one
// live threshold in one pair-step — is exactly one of certified, exact
// fallback, empty side or repeated neighbour, counted per worker; the exact
// Kernel.LogML calls follow from them, one for the resample total of every
// pair-step and two per fallback, and SplitsImprove returns the misses
// among them, summed per worker like the fallbacks, so
//
//	hits = pairSteps + 2·fallbacks − misses
//
// and nothing on the kernel counts. split_steps is the
// per-candidate count and identical for every p × W × strategy; the pair,
// draw and decision counters are the work actually done, replay at cut pairs
// included, and depend on where the ranges were cut.
func (ev *evaluator) recordMetrics(reg *obs.Registry, steps []int) {
	if reg == nil {
		return
	}
	// One histogram update per distinct step count, not per candidate.
	counts := make([]int64, ev.par.MaxSteps+1)
	for _, s := range steps {
		counts[s]++
	}
	hist := reg.Histogram("split_steps", "bootstrap resampling steps per candidate split", obs.DefaultStepBuckets)
	for s, n := range counts {
		hist.ObserveN(float64(s), n)
	}
	var pairSteps, draws, decisions, empty, repeated, fallbacks, misses int64
	for _, sc := range ev.scratches {
		pairSteps += sc.pairSteps
		draws += sc.draws
		decisions += sc.decisions
		empty += sc.empty
		repeated += sc.repeated
		fallbacks += sc.exactFallbacks
		misses += sc.tableMisses
	}
	counter := func(name, help string, v int64) { reg.Counter(name, help, "phase", PhaseAssign).Add(v) }
	counter("split_pair_steps", "bootstrap resamples drawn, one per ⟨node,parent⟩ pair-step", pairSteps)
	counter("split_draws_total", "bootstrap picks drawn by split scoring", draws)
	counter("split_decisions_certified_total", "threshold-steps whose sign the approximate logarithm certified, no exact logML evaluated", decisions-empty-repeated-fallbacks)
	counter("split_decisions_fallback_total", "threshold-steps too close to call, decided by two exact Kernel.LogML evaluations", fallbacks)
	counter("split_decisions_empty_total", "threshold-steps with an empty side, answered no without scoring", empty)
	counter("split_decisions_repeated_total", "threshold-steps whose left block equalled the previous live threshold's, answered alike without scoring", repeated)
	counter("kernel_table_hits_total", "split-score kernel LogML calls served from the precomputed tables", pairSteps+2*fallbacks-misses)
	counter("kernel_table_misses_total", "split-score kernel LogML calls that fell back to direct Prior.LogML", misses)
}

// recordWork appends the full list's per-candidate cost items to the work
// record's assignment phase, in canonical candidate order, so the record is
// identical for every worker count, and charges the exchange of the paper's
// algorithm on more than one rank: the segmented scan's two all-gathers,
// carrying one weight partial per node and one element per split in res,
// which is what scan.go sends. steps must cover the whole list, as a
// one-rank world's do: a work record is for a one-rank world only
// (obs.Hooks.Work), where a rank's share is all of it.
func (ev *evaluator) recordWork(steps []int, res Result) {
	ph := ev.rc.Hooks.Phase(PhaseAssign, false)
	if ph == nil {
		return
	}
	// Later calls (module learning records one assignment per module)
	// continue the segment numbering where the previous call stopped, so
	// node segments stay globally distinct for the coarse model.
	segBase := 0
	if len(ph.Items) > 0 {
		segBase = ph.Items[len(ph.Items)-1].Seg + 1
	}
	for ni, ref := range ev.nodes {
		nObs := len(ref.node.Obs)
		for first := ref.offset; first < ref.offset+ref.count; first += nObs {
			pair := steps[first : first+nObs]
			for k, s := range pair {
				cost := candCost(s)
				if k == 0 {
					cost += pairCost(slices.Max(pair), nObs)
				}
				ph.Items = append(ph.Items, trace.Item{Cost: cost, Seg: segBase + ni})
			}
		}
	}
	ph.Collectives += 2
	ph.Words += int64(len(ev.nodes) + len(res.Weighted) + len(res.Uniform))
}

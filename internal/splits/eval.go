// The pair evaluator — the one posterior loop of the package (DESIGN §18).
//
// The unit of randomness is the ⟨node, parent⟩ pair: its nObs thresholds
// share one numbered substream and one bootstrap resample per step. A
// resample is bucket-accumulated by live segment — the slots between two
// live thresholds — and prefix-summed, so every live distinct threshold
// reads its left block in O(1) and a pair-step costs O(nObs + live) instead
// of O(nObs · live). Up to eight pairs of one node step in lockstep as one
// pool item, so that their thresholds share one decision call a step; each
// keeps its own substream, stop rule and step count. The unit of distribution
// stays the candidate: eval scores any half-open range of the global list,
// and a range that cuts a pair evaluates only its own thresholds while
// replaying the pair's draws from the start of the pair's substream.
// Liveness decides when drawing stops, never what is drawn, so a
// threshold's posterior is a function of (pair substream, threshold) alone
// and every p × W × strategy yields identical bits.

package splits

import (
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

// blockPairs is how many pairs of one node a pool item evaluates in
// lockstep: each step scores their totals in one Kernel.LogMLBatch call and
// decides all of their live thresholds in one Kernel.SplitsImprove call, so
// the calls' fixed costs, the kernels' pipeline fill and a vector's odd-lane
// padding are shared by the block. It is a constant, not an option: no
// result depends on it. Eight learned the assign shape faster than four
// (CHANGES.md); liveThreshold holds a pair in three bits.
const blockPairs = 8

// scratch is one worker's reusable buffers, allocation-free per block, plus
// its exact work counters.
type scratch struct {
	pairs [blockPairs]pairState
	// bkt is a block-step's resample sums: the pairs' totals in
	// bkt[:blockPairs] (an empty block for a pair that has stopped), then
	// per pair q in turn an empty block and its live + 1 segment buckets,
	// prefix-summed in place into each live threshold's left block and,
	// last, the total. The empty block in front makes the bucket before a
	// pair's first live threshold read as a count of 0, and it puts the
	// e-th live threshold of the block at bkt[blockPairs+1+2q+e]. totML is
	// the totals' scores.
	bkt   []score.Stats
	totML [blockPairs]float64
	// live is the block's live thresholds, pair by pair, each pair's in
	// ascending group order; retired receives a step's retiring ones.
	live, retired []liveThreshold
	// lanes and dec are one block-step's decision lanes: each lane's left
	// block and total in bkt, and dec[1:] their Kernel.SplitsImprove
	// answers after dec[0], which stays 0.
	lanes []score.Lane
	dec   []score.Decision
	// pairSteps and draws count resamples and bootstrap picks; decisions the
	// threshold-steps (one per live threshold per pair-step), of which empty
	// had nothing on one side, repeated had the previous live threshold's
	// left block, and exactFallbacks were scored exactly because the
	// certified test could not tell — the rest were certified; tableMisses
	// is the Kernel.LogML calls outside the table, the totals' and those
	// SplitsImprove made. cands is the candidates scored in the current eval
	// call.
	pairSteps, draws, cands                                 int64
	decisions, empty, repeated, exactFallbacks, tableMisses int64
}

// liveThreshold is a live threshold of a block in one word: from the top,
// its pair (3 bits), its group (24), the index of its answer among the
// step's decisions (24) and its success count (13), so that counting a
// success is adding 1. Params.Validate bounds MaxSteps by 4096, so the count
// fits; a node has at most 2²⁴ observations (score.MaxBlockCells over two
// variables), so its groups do; and blockLen keeps a block's lanes below
// 2²⁴.
type liveThreshold uint64

const (
	laneBits  = 24
	laneShift = 13
	laneMask  = (1<<laneBits - 1) << laneShift
)

func newLiveThreshold(q, d int) liveThreshold { return liveThreshold(q)<<61 | liveThreshold(d)<<37 }

func (t liveThreshold) pair() int  { return int(t >> 61) }
func (t liveThreshold) group() int { return int(t >> 37 & (1<<24 - 1)) }
func (t liveThreshold) lane() int  { return int(t & laneMask >> laneShift) }
func (t liveThreshold) succ() int  { return int(t & (1<<laneShift - 1)) }

// pairState is one pair of a block: its column, threshold groups and live
// segments, its substream, and where its results go.
type pairState struct {
	// pobs[k] is the parent's quantized value at the node's k-th
	// observation in its high 32 bits and k in its low ones, so that
	// sorting pobs orders the slots by value; order is the slots so sorted;
	// grp[k] slot k's threshold group — its rank among the column's distinct
	// values. Slots of one group are the same threshold and are scored
	// once; a pick lands left of group d's threshold iff its own group is
	// ≤ d, and the last group sends everything left (a degenerate split:
	// posterior 0, no draws).
	pobs  []int64
	order []int32
	grp   []int32
	// seg[k] is slot k's live segment, the number of live thresholds below
	// its group: a pick lands left of the j-th live threshold iff its
	// segment is ≤ j. It changes only when a threshold retires.
	seg []int32
	// picks receives one step's draws.
	picks []int
	// groups is the per-threshold-group state once retired; live counts
	// the pair's live thresholds.
	groups []group
	live   int
	sub    *prng.MRG3
	// post and steps receive the posteriors and step counts of the slots
	// [from, to) that the evaluated range asks for.
	post     []float64
	steps    []int
	from, to int
}

// group is one distinct threshold of the pair being evaluated: whether the
// evaluated range asks for it, and once retired its step count and
// posterior.
type group struct {
	want  bool
	steps int32
	post  float64
}

// grow sizes the block buffers for a node with nObs observations.
func (sc *scratch) grow(nObs int) {
	n := blockLen(nObs)
	if cap(sc.lanes) < n*nObs || len(sc.bkt) < blockPairs+n*(nObs+2) {
		sc.bkt = make([]score.Stats, blockPairs+n*(nObs+2))
		sc.live = make([]liveThreshold, n*nObs)
		sc.retired = make([]liveThreshold, n*nObs)
		sc.lanes = make([]score.Lane, n*nObs)
		sc.dec = make([]score.Decision, n*nObs+1)
	}
	for q := range n {
		sc.pairs[q].grow(nObs)
	}
}

// grow sizes the per-observation buffers for a node with nObs observations.
func (p *pairState) grow(nObs int) {
	if cap(p.pobs) < nObs {
		p.pobs = make([]int64, nObs)
		p.order = make([]int32, nObs)
		p.grp = make([]int32, nObs)
		p.seg = make([]int32, nObs)
		p.picks = make([]int, nObs)
		p.groups = make([]group, nObs)
	}
	p.pobs, p.order, p.grp, p.seg, p.picks = p.pobs[:nObs], p.order[:nObs], p.grp[:nObs], p.seg[:nObs], p.picks[:nObs]
}

// fillPair gathers the parent column over the node's observations, sorts it
// once for the pair's nObs thresholds, and numbers the threshold groups. It
// returns the group count.
func (p *pairState) fillPair(q *score.QData, ref *nodeRef, parent int) int {
	prow := q.Row(parent)
	for k, j := range ref.node.Obs {
		p.pobs[k] = int64(prow[j])<<32 | int64(k)
	}
	slices.Sort(p.pobs)
	last, prev := int32(0), p.pobs[0]>>32
	for i, key := range p.pobs {
		if v := key >> 32; v != prev {
			last, prev = last+1, v
		}
		k := int32(key)
		p.order[i], p.grp[k] = k, last
	}
	return int(last) + 1
}

// segment maps every slot to its live segment, walking the slots in value
// order beside the pair's live thresholds, ascending.
func (p *pairState) segment(live []liveThreshold) {
	j := 0
	for _, k := range p.order {
		for j < len(live) && live[j].group() < int(p.grp[k]) {
			j++
		}
		p.seg[k] = int32(j)
	}
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
// worker pool, one pool item per block of up to blockPairs pairs of one node
// (the first and last pair possibly cut to fragments by the range). It
// returns their posteriors and consumed steps, indexed from lo, and the
// pool's per-worker counters with Items counting candidates. Workers write
// disjoint slots, so the fill is order-free.
func (ev *evaluator) eval(lo, hi int) (post []float64, steps []int, st pool.Stats) {
	post, steps = make([]float64, hi-lo), make([]int, hi-lo)
	if hi <= lo {
		return post, steps, pool.For(0, 1, 1, nil)
	}
	for _, sc := range ev.scratches {
		sc.cands = 0
	}
	// Each block's first pair; a block ends at the node's last pair, at the
	// range's or after blockLen pairs.
	np := len(ev.par.Candidates)
	g1 := ev.pairAt(hi - 1)
	var blocks []int
	for g := ev.pairAt(lo); g <= g1; {
		blocks = append(blocks, g)
		g = min(g+blockLen(len(ev.nodes[g/np].node.Obs)), (g/np+1)*np)
	}
	st = pool.For(len(blocks), ev.rc.Workers, 1, func(i, w int) float64 {
		g := blocks[i]
		end := min(g+blockLen(len(ev.nodes[g/np].node.Obs)), (g/np+1)*np, g1+1)
		return ev.evalBlock(ev.scratches[w], ev.nodes[g/np], g%np, end-g, lo, hi, post, steps)
	})
	for w := range st.Items {
		st.Items[w] = ev.scratches[w].cands
	}
	return post, steps, st
}

// blockLen is how many pairs a block of a node with nObs observations
// holds: blockPairs, or fewer for a node so large that its lanes would not
// fit liveThreshold's field (a pair-step has fewer lanes than the node has
// observations).
func blockLen(nObs int) int {
	return max(1, min(blockPairs, (1<<laneBits-1)/max(1, nObs)))
}

// evalBlock runs the bootstrap of the n pairs ⟨ref, Candidates[pi0+q]⟩ in
// lockstep for their thresholds in [lo, hi), writing their posteriors and
// step counts into post and steps (indexed from lo), and returns the
// block's recorded cost. Every step of a pair draws one resample from the
// pair's substream whichever slots are asked for; thresholds retire
// individually on the stop table, and a pair stops drawing when none of its
// requested ones is live. No pair reads another's draws or counts, so a
// block computes what its pairs would one by one; the pairs still drawing
// have all taken the same number of steps.
func (ev *evaluator) evalBlock(sc *scratch, ref *nodeRef, pi0, n, lo, hi int, post []float64, steps []int) (cost float64) {
	nObs := len(ref.node.Obs)
	if nObs == 0 {
		return 0 // a node without observations has no candidates
	}
	sc.grow(nObs)
	bkt, totML := sc.bkt, sc.totML[:]
	clear(bkt[:blockPairs])
	live := sc.live[:0]
	for q := range n {
		p := &sc.pairs[q]
		first := ref.offset + (pi0+q)*nObs
		p.from, p.to = max(lo, first)-first, min(hi, first+nObs)-first
		p.post, p.steps = post[first+p.from-lo:first+p.to-lo], steps[first+p.from-lo:first+p.to-lo]
		sc.cands += int64(p.to - p.from)
		groups := p.fillPair(ev.q, ref, ev.par.Candidates[pi0+q])
		gs := p.groups[:groups]
		clear(gs)
		for _, d := range p.grp[p.from:p.to] {
			gs[d].want = true
		}
		mine := len(live)
		for d := range gs[:groups-1] {
			if gs[d].want {
				live = append(live, newLiveThreshold(q, d))
			}
		}
		p.live = len(live) - mine
		p.segment(live[mine:])
		p.sub = ev.base.Substream(uint64(first))
		if p.live == 0 {
			ev.finish(sc, p, nObs, 0)
		}
	}

	draw := prng.NewUniform(nObs)
	cols, kern, w := ref.colStats, ev.kern, ev.par.MaxSteps+1
	// Every total holds nObs picks of |module| cells each, so the totals
	// share one count: one compare decides whether their scores miss the
	// table.
	totN := int64(nObs) * cols[0].N
	totMiss := int64(b2i(totN >= int64(kern.TableLen())))
	// The totals are scored four to a vector, so a block of fewer pairs
	// scores only the vectors it fills.
	nTot := min(blockPairs, (n+3)&^3)
	for step := 1; len(live) > 0; step++ {
		base, drawing := blockPairs+1, 0
		for q := range n {
			p := &sc.pairs[q]
			if p.live == 0 {
				base += 2
				continue
			}
			drawing++
			bkt[base-1] = score.Stats{}
			bkt[q] = p.resample(draw, cols, bkt[base:base+p.live+1])
			base += p.live + 2
		}
		kern.LogMLBatch(totML[:nTot], bkt[:nTot])
		sc.tableMisses += totMiss * int64(drawing)

		lanes, empty := classify(live, bkt, totN, sc.lanes)
		sc.decisions += int64(len(live))
		sc.empty += int64(empty)
		sc.repeated += int64(len(live) - empty - lanes)
		dec := sc.dec[:1+lanes]
		fallbacks, misses := kern.SplitsImprove(dec[1:], bkt, sc.lanes[:lanes], totML)
		sc.exactFallbacks += int64(fallbacks)
		sc.tableMisses += int64(misses)

		m, r := retire(live, sc.retired, dec, ev.stop[step*w:step*w+w])
		live = live[:m]
		if r == 0 {
			continue
		}
		changed := 0
		for _, t := range sc.retired[:r] {
			p, g := &sc.pairs[t.pair()], t.group()
			p.groups[g].steps, p.groups[g].post = int32(step), float64(t.succ())/float64(step)
			p.live--
			changed |= 1 << t.pair()
		}
		// Re-segment the pairs that lost a live threshold, and finish the
		// ones that have none left.
		first := 0
		for q := range n {
			p := &sc.pairs[q]
			mine := live[first : first+p.live]
			first += p.live
			switch {
			case changed&(1<<q) == 0:
			case p.live == 0:
				ev.finish(sc, p, nObs, step)
				bkt[q] = score.Stats{}
			default:
				p.segment(mine)
			}
		}
	}
	for q := range n {
		p := &sc.pairs[q]
		cost += fragCost(p.steps, nObs, p.from == 0)
	}
	return cost
}

// resample draws the pair's next resample, bucket-accumulates it by live
// segment into b (live + 1 buckets) and prefix-sums b in place into each
// live threshold's left block, b's last element the total, which it
// returns. The hot loops of a step live in functions of their own so that
// the block's state does not crowd them out of registers.
//
//go:noinline
func (p *pairState) resample(draw prng.Uniform, cols, b []score.Stats) score.Stats {
	picks, seg := p.picks, p.seg
	draw.Fill(p.sub, picks)
	clear(b)
	for _, pick := range picks {
		b[seg[pick]].Merge(cols[pick])
	}
	// The running block stays in registers: merging into b[j] from b[j-1]
	// would reload the block just stored.
	run := b[0]
	for j := 1; j < len(b); j++ {
		run.Merge(b[j])
		b[j] = run
	}
	return run
}

// classify sorts a block-step's live thresholds by their left block's
// count, an exact test because the buckets are prefix sums and every pick
// adds the module's variable count. An empty side (N == 0 or N == totN; as
// 0 ≤ N ≤ totN, one unsigned compare) is 0 + logML(tot) − logML(tot), not
// above zero. A count equal to the bucket before's means the threshold's
// segment got no pick, so its block and its answer are the previous live
// threshold's (the bucket before a pair's first is empty, so that one is
// never repeated). The rest are the step's decision lanes, in lanes. Each
// live threshold records its answer's index in the decisions, which hold a
// constant "no" before the lanes' answers: a non-empty threshold's is the
// count of lanes so far, a repeated one's the lane before it, and an empty
// side's 0. It returns the lane and empty-side counts. One pass over the
// block, without a branch on the data.
//
//go:noinline
func classify(live []liveThreshold, bkt []score.Stats, totN int64, lanes []score.Lane) (n, empty int) {
	for e, t := range live {
		q := t.pair()
		i := blockPairs + 1 + 2*q + e
		cur, prev := bkt[i].N, bkt[i-1].N
		em := b2i(uint64(cur-1) >= uint64(totN-1))
		lanes[n] = score.Lane{Left: int32(i), Total: int32(q)}
		n += b2i(cur != prev) &^ em
		live[e] = t&^laneMask | liveThreshold(n&^-em)<<laneShift
		empty += em
	}
	return n, empty
}

// retire adds each live threshold's answer to its successes and looks it
// up on the step's row of the stop table: it keeps the ones that go on in
// live[:m], in order, and copies the retiring ones to retired[:r]. One pass
// over the block, without a branch on the data.
//
//go:noinline
func retire(live, retired []liveThreshold, dec []score.Decision, stop []bool) (m, r int) {
	for _, t := range live {
		t += liveThreshold(dec[t.lane()] & score.Improves)
		done := b2i(stop[t.succ()])
		live[m], retired[r] = t, t
		m += 1 - done
		r += done
	}
	return m, r
}

// finish writes the results of a pair that stopped drawing after steps
// resamples and counts them.
func (ev *evaluator) finish(sc *scratch, p *pairState, nObs, steps int) {
	sc.pairSteps += int64(steps)
	sc.draws += int64(steps * nObs)
	for k, d := range p.grp[p.from:p.to] {
		p.post[k], p.steps[k] = p.groups[d].post, int(p.groups[d].steps)
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

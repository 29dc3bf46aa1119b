package splits

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"parsimone/internal/comm"
	"parsimone/internal/obs"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
)

// naivePair is the pair evaluator's differential baseline: the same stream
// layout — one substream per pair, one resample per step shared by the
// pair's thresholds — computed the slow way. Picks come from scalar Intn
// draws, every live threshold rescans the resample through its own
// left/right comparison, every decision is the exact expression through
// Prior.LogML (no kernel tables, no certified sign test, no shortcut for
// empty sides or repeated blocks), and the stopping rule is the float
// expression itself rather than the hoisted table. It returns the pair's posteriors
// and step counts by slot.
func naivePair(q *score.QData, pr score.Prior, ref *nodeRef, parent int, sub *prng.MRG3, par Params) ([]float64, []int) {
	nObs := len(ref.node.Obs)
	prow := q.Row(parent)
	post, steps := make([]float64, nObs), make([]int, nObs)
	succ := make([]int, nObs)
	live := make([]bool, nObs)
	nLive := 0
	for k, j := range ref.node.Obs {
		for _, j2 := range ref.node.Obs {
			if prow[j2] > prow[j] {
				live[k] = true // a non-empty right side: not degenerate
			}
		}
		if live[k] {
			nLive++
		}
	}
	picks := make([]int, nObs)
	for step := 1; nLive > 0; step++ {
		for i := range picks {
			picks[i] = sub.Intn(nObs)
		}
		for k, j := range ref.node.Obs {
			if !live[k] {
				continue
			}
			var ls, rs score.Stats
			for _, pick := range picks {
				if prow[ref.node.Obs[pick]] <= prow[j] {
					ls.Merge(ref.colStats[pick])
				} else {
					rs.Merge(ref.colStats[pick])
				}
			}
			if pr.LogML(ls)+pr.LogML(rs)-pr.LogML(ls.Plus(rs)) > 0 {
				succ[k]++
			}
			done := step >= par.MaxSteps
			if !done && step >= minSteps {
				phat := float64(succ[k]) / float64(step)
				done = 1.96*math.Sqrt(phat*(1-phat)/float64(step)) < ciHalfWidth
			}
			if done {
				live[k] = false
				nLive--
				post[k], steps[k] = float64(succ[k])/float64(step), step
			}
		}
	}
	return post, steps
}

// fixedSteps is the stop table of a rule without early termination: every
// live threshold runs to maxSteps resamples.
func fixedSteps(maxSteps int) []bool {
	w := maxSteps + 1
	stop := make([]bool, w*w)
	for k := 0; k <= maxSteps; k++ {
		stop[maxSteps*w+k] = true
	}
	return stop
}

// kernelOf is the rank kernel core builds for q: a table of q.N·q.M
// counts, which covers every block a split can score.
func kernelOf(q *score.QData, pr score.Prior) *score.Kernel { return score.NewKernel(pr, q.N*q.M) }

// maxStatsN returns the largest sufficient-statistics count the bootstrap
// can produce over these nodes — a full resample drawing one observation
// column (one Stats value per module variable) |Obs| times.
func maxStatsN(nodes []*nodeRef) int {
	maxN := 0
	for _, ref := range nodes {
		if len(ref.colStats) > 0 {
			maxN = max(maxN, len(ref.node.Obs)*int(ref.colStats[0].N))
		}
	}
	return maxN
}

// TestPosteriorMatchesPreKernel: the evaluator — bucket/prefix resample
// sums, threshold groups scored once, the certified split decision over the
// kernel tables with its empty-side and repeated-neighbour shortcuts, the
// hoisted stop table — must return the identical (posterior, steps)
// pair, same float bits, as the naive kernel-less evaluation of the same
// stream layout, for every candidate.
func TestPosteriorMatchesPreKernel(t *testing.T) {
	q, modules, trees, _ := fixture(t, 17)
	pr := score.DefaultPrior()
	g := prng.New(19)
	ev := newEvaluator(rank.Self(nil), q, kernelOf(q, pr), modules, trees, Params{MaxSteps: 24}, g)
	gotP, gotS, _ := ev.eval(0, ev.total)
	for _, ref := range ev.nodes {
		nObs := len(ref.node.Obs)
		for pi, parent := range ev.par.Candidates {
			first := ref.offset + pi*nObs
			wantP, wantS := naivePair(q, pr, ref, parent, g.Substream(uint64(first)), ev.par)
			for k := range wantP {
				if math.Float64bits(gotP[first+k]) != math.Float64bits(wantP[k]) || gotS[first+k] != wantS[k] {
					t.Fatalf("candidate %d: evaluator (%v, %d), naive (%v, %d)",
						first+k, gotP[first+k], gotS[first+k], wantP[k], wantS[k])
				}
			}
		}
	}
	for _, sc := range ev.scratches {
		if sc.tableMisses != 0 {
			t.Fatalf("%d table misses; the N·M table is too small", sc.tableMisses)
		}
	}
}

// TestPosteriorBatchBitIdentical: a pair scored as one batch and the same
// pair scored in pieces — down to one eval call per candidate, each
// replaying the pair's draws for its own threshold alone — must agree on
// every bit and every step count. This is the cut-pair replay argument at
// its extreme: liveness decides when drawing stops, never what is drawn.
func TestPosteriorBatchBitIdentical(t *testing.T) {
	q, modules, trees, _ := fixture(t, 18)
	pr := score.DefaultPrior()
	batch := newEvaluator(rank.Self(nil), q, kernelOf(q, pr), modules, trees, Params{MaxSteps: 24}, prng.New(19))
	wantP, wantS, _ := batch.eval(0, batch.total)
	single := newEvaluator(rank.Self(nil), q, kernelOf(q, pr), modules, trees, Params{MaxSteps: 24}, prng.New(19))
	for ci := 0; ci < single.total; ci++ {
		p, s, _ := single.eval(ci, ci+1)
		if math.Float64bits(p[0]) != math.Float64bits(wantP[ci]) || s[0] != wantS[ci] {
			t.Fatalf("candidate %d: alone (%v, %d), in its pair's batch (%v, %d)", ci, p[0], s[0], wantP[ci], wantS[ci])
		}
	}
	if single.scratches[0].draws <= batch.scratches[0].draws {
		t.Fatalf("per-candidate evaluation drew %d picks, the batch %d — replay should cost more",
			single.scratches[0].draws, batch.scratches[0].draws)
	}
	// Arbitrary cuts, three workers: ranges tile the list at edges that are
	// not pair boundaries.
	cut := newEvaluator(on(comm.Self(), 3, nil), q, kernelOf(q, pr), modules, trees, Params{MaxSteps: 24}, prng.New(19))
	for lo := 0; lo < cut.total; {
		hi := min(lo+37, cut.total)
		p, s, _ := cut.eval(lo, hi)
		if !reflect.DeepEqual(p, wantP[lo:hi]) || !reflect.DeepEqual(s, wantS[lo:hi]) {
			t.Fatalf("range [%d,%d) differs from the whole-list evaluation", lo, hi)
		}
		lo = hi
	}
}

// TestKernelHitCounterExact pins the accounting of a threshold-step. Every
// live distinct threshold of every pair-step is exactly one of certified,
// exact fallback, empty side or repeated neighbour, and the exact
// Kernel.LogML calls follow: one for the resample total per pair-step and
// two per fallback, each a table hit or a miss. The expected totals are
// rebuilt here from the per-candidate step counts alone. With the rank's N·M
// table there is no miss and — on this fixture — no near tie, so
// the second run halves the table: blocks beyond it cannot be certified,
// which exercises the fallback and miss terms without moving a posterior.
// A half table's misses are known too: a pair-step misses once for its
// total when the total lies outside, and never otherwise, since its sides
// are then inside and decided as the full table decides them; and each of
// its fallbacks misses once more, for the one side that lies outside (both
// cannot, as the total would exceed twice the table). The third run hands
// one half table to both ranks of a two-rank world, whose ranks score at
// the same time: each rank's counters must still be its own.
func TestKernelHitCounterExact(t *testing.T) {
	q, modules, trees, _ := fixture(t, 16)
	par := Params{MaxSteps: 24}
	counter := func(reg *obs.Registry, metric string) int64 {
		return reg.Counter(metric, "", "phase", PhaseAssign).Value()
	}
	// checkMisses requires of one rank's registry the table identity and,
	// for a table of tabLen counts, the misses of the pair-steps of
	// candidates [lo, hi), given every candidate's step count.
	checkMisses := func(name string, reg *obs.Registry, nodes []*nodeRef, steps []int, lo, hi, tabLen int) (fallbacks, misses int64) {
		var pairSteps, draws, outside int64
		for _, ref := range nodes {
			nObs := len(ref.node.Obs)
			for first := ref.offset; first < ref.offset+ref.count; first += nObs {
				// A pair steps until its longest candidate in range stops.
				longest := 0
				for ci := max(first, lo); ci < min(first+nObs, hi); ci++ {
					longest = max(longest, steps[ci])
				}
				pairSteps += int64(longest)
				draws += int64(longest * nObs)
				if nObs*int(ref.colStats[0].N) >= tabLen {
					outside += int64(longest)
				}
			}
		}
		if got := counter(reg, "split_pair_steps"); got != pairSteps {
			t.Errorf("%s: split_pair_steps %d, want %d", name, got, pairSteps)
		}
		if got := counter(reg, "split_draws_total"); got != draws {
			t.Errorf("%s: split_draws_total %d, want %d", name, got, draws)
		}
		fallbacks = counter(reg, "split_decisions_fallback_total")
		hits, misses := counter(reg, "kernel_table_hits_total"), counter(reg, "kernel_table_misses_total")
		if got, want := hits+misses, pairSteps+2*fallbacks; got != want {
			t.Errorf("%s: table hits %d + misses %d = %d exact logML calls, want pair-steps + 2·fallbacks = %d", name, hits, misses, got, want)
		}
		if want := outside + fallbacks; misses != want {
			t.Errorf("%s: kernel_table_misses_total %d, want %d pair-steps with the total outside the table + %d fallbacks = %d",
				name, misses, outside, fallbacks, want)
		}
		if hits <= 0 {
			t.Errorf("%s: %d table hits, want > 0", name, hits)
		}
		return fallbacks, misses
	}

	var wantPost []float64
	var wantSteps []int
	var half *score.Kernel
	var nodes []*nodeRef
	total := 0
	for _, shrink := range []bool{false, true} {
		reg := obs.NewRegistry()
		ev := newEvaluator(on(comm.Self(), 1, reg), q, kernelOf(q, score.DefaultPrior()), modules, trees, par, prng.New(21))
		if shrink {
			half = score.NewKernel(score.DefaultPrior(), maxStatsN(ev.nodes)/2)
			ev.kern, nodes, total = half, ev.nodes, ev.total
		}
		post, steps, st := ev.eval(0, ev.total)
		ev.observe(st, steps)
		if wantPost == nil {
			wantPost, wantSteps = post, steps
		} else if !reflect.DeepEqual(post, wantPost) || !reflect.DeepEqual(steps, wantSteps) {
			t.Fatal("half table: posteriors or steps differ from the full table's")
		}

		var thresholdSteps int64
		for _, ref := range ev.nodes {
			nObs := len(ref.node.Obs)
			for pi, parent := range ev.par.Candidates {
				first := ref.offset + pi*nObs
				// Equal-valued thresholds are one group, scored once.
				byValue := map[int64]int{}
				for k, j := range ref.node.Obs {
					byValue[q.At(parent, j)] = steps[first+k]
				}
				for _, s := range byValue {
					thresholdSteps += int64(s)
				}
			}
		}
		certified, fallbacks := counter(reg, "split_decisions_certified_total"), counter(reg, "split_decisions_fallback_total")
		empty, repeated := counter(reg, "split_decisions_empty_total"), counter(reg, "split_decisions_repeated_total")
		if got := certified + fallbacks + empty + repeated; got != thresholdSteps {
			t.Errorf("certified %d + fallbacks %d + empty %d + repeated %d = %d threshold-steps, want one per live threshold per pair-step = %d",
				certified, fallbacks, empty, repeated, got, thresholdSteps)
		}
		_, misses := checkMisses(fmt.Sprintf("shrink %v", shrink), reg, ev.nodes, steps, 0, ev.total, ev.kern.TableLen())
		// The premise of naming the cases: each occurs on this fixture.
		if certified <= 0 || empty <= 0 || repeated <= 0 {
			t.Errorf("certified %d, empty %d, repeated %d: want all > 0", certified, empty, repeated)
		}
		if !shrink && (fallbacks != 0 || misses != 0) {
			t.Errorf("%d fallbacks, %d table misses, want 0 (the N·M table covers every block, and no decision of this fixture is a near tie)", fallbacks, misses)
		}
		if shrink && (fallbacks <= 0 || misses <= 0) {
			t.Errorf("half table: %d fallbacks, %d misses, want both > 0", fallbacks, misses)
		}
	}

	// Two ranks, one half table: the static schedule scores one block of
	// the candidate list per rank. A world takes a few milliseconds; four
	// of them make it near certain that the ranks score at the same time in
	// at least one.
	for world := range 4 {
		regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
		if _, err := comm.Run(2, func(c *comm.Comm) error {
			comm.Barrier(c)
			LearnWithComm(on(c, 1, regs[c.Rank()]), q, half, modules, trees, par, prng.New(21))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for r, reg := range regs {
			lo, hi := comm.BlockRange(total, 2, r)
			name := fmt.Sprintf("world %d, p=2 rank %d", world, r)
			if fallbacks, misses := checkMisses(name, reg, nodes, wantSteps, lo, hi, half.TableLen()); fallbacks <= 0 || misses <= 0 {
				t.Errorf("%s: %d fallbacks, %d misses, want both > 0", name, fallbacks, misses)
			}
		}
	}
}

// TestPairMarginalsMatchPerCandidateLayout is the quality pin of the
// stream-layout change. testdata/marginals.json was recorded at the parent
// commit (1bb2f8d, layout 1: a substream and a private resample per
// candidate): per candidate of fixture(1), the sum and sum of squares over
// seeds 1…200 of its success count in 32 fixed steps (the fixedSteps table).
// Layout 2 shares a pair's resample among its thresholds, which correlates
// candidates within a pair but must leave every candidate's own marginal the
// same estimator. Over 200 fresh seeds, the per-candidate z-scores of the
// two layouts' mean success counts must look standard normal: |mean| < 0.1,
// sd within 0.9…1.1, fewer than 1 % beyond 3σ (0.27 % expected).
func TestPairMarginalsMatchPerCandidateLayout(t *testing.T) {
	raw, err := os.ReadFile("testdata/marginals.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Seeds, Steps, Candidates int
		Sum                      []int64 `json:"sum"`
		SumSq                    []int64 `json:"sum_sq"`
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	q, modules, trees, _ := fixture(t, 1)
	pr := score.DefaultPrior()
	par := Params{MaxSteps: ref.Steps}
	sum, sumSq := make([]int64, ref.Candidates), make([]int64, ref.Candidates)
	for seed := 0; seed < ref.Seeds; seed++ {
		ev := newEvaluator(rank.Self(nil), q, kernelOf(q, pr), modules, trees, par, prng.New(uint64(1001+seed)))
		ev.stop = fixedSteps(ref.Steps)
		if ev.total != ref.Candidates {
			t.Fatalf("fixture enumerates %d candidates, the record %d", ev.total, ref.Candidates)
		}
		post, _, _ := ev.eval(0, ev.total)
		for ci, p := range post {
			s := int64(math.Round(p * float64(ref.Steps)))
			sum[ci] += s
			sumSq[ci] += s * s
		}
	}
	n := float64(ref.Seeds)
	moments := func(sum, sumSq int64) (mean, variance float64) {
		mean = float64(sum) / n
		return mean, (float64(sumSq) - n*mean*mean) / (n - 1)
	}
	var zs []float64
	for ci := range sum {
		m1, v1 := moments(ref.Sum[ci], ref.SumSq[ci])
		m2, v2 := moments(sum[ci], sumSq[ci])
		if v1+v2 <= 0 {
			if m1 != m2 {
				t.Fatalf("candidate %d is constant in both layouts at different values: %v vs %v", ci, m1, m2)
			}
			continue
		}
		zs = append(zs, (m2-m1)/math.Sqrt((v1+v2)/n))
	}
	var mean, ss float64
	tail := 0
	for _, z := range zs {
		mean += z
		if math.Abs(z) > 3 {
			tail++
		}
	}
	mean /= float64(len(zs))
	for _, z := range zs {
		ss += (z - mean) * (z - mean)
	}
	sd := math.Sqrt(ss / float64(len(zs)-1))
	t.Logf("%d candidates with spread: z mean %.4f, sd %.4f, %d beyond 3σ", len(zs), mean, sd, tail)
	if len(zs) < ref.Candidates/2 {
		t.Fatalf("only %d of %d candidates have any spread", len(zs), ref.Candidates)
	}
	if math.Abs(mean) > 0.1 || sd < 0.9 || sd > 1.1 || tail*100 > len(zs) {
		t.Fatalf("marginals differ between layouts: z mean %.4f, sd %.4f, %d of %d beyond 3σ", mean, sd, tail, len(zs))
	}
}

// splitStepsDump returns the registry's split_steps series as JSON.
func splitStepsDump(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var all []map[string]any
	if err := json.Unmarshal(registryJSON(t, reg), &all); err != nil {
		t.Fatal(err)
	}
	for _, m := range all {
		if m["name"] == "split_steps" {
			out, _ := json.Marshal(m)
			return string(out)
		}
	}
	t.Fatal("no split_steps series recorded")
	return ""
}

// TestCutPairInvariance: p × W × strategy where pairs are cut. Static block
// edges land inside pairs, the dynamic chunk sizes are multiples of no
// node's observation count (each chunk bound is rounded up to a pair
// boundary), and W workers deal pairs among themselves — every combination
// must return the sequential Result and record the sequential per-candidate
// split_steps.
func TestCutPairInvariance(t *testing.T) {
	q, modules, trees, _ := fixture(t, 14)
	pr := score.DefaultPrior()
	base := Params{NumSplits: 2, MaxSteps: 24}
	seqReg := obs.NewRegistry()
	want := LearnWithComm(on(comm.Self(), 1, seqReg), q, kernelOf(q, pr), modules, trees, base, prng.New(23))
	wantSteps := splitStepsDump(t, seqReg)

	ev := newEvaluator(rank.Self(nil), q, kernelOf(q, pr), modules, trees, base, prng.New(23))
	chunks := []int{11, 29, 101}
	for _, ref := range ev.nodes {
		for _, chunk := range chunks {
			if chunk%len(ref.node.Obs) == 0 {
				t.Fatalf("dynamic chunk %d is a multiple of a node's %d observations", chunk, len(ref.node.Obs))
			}
		}
	}
	for _, p := range []int{2, 3, 5} {
		cuts := 0
		for r := 1; r < p; r++ {
			if lo, _ := comm.BlockRange(ev.total, p, r); ev.alignUp(lo) != lo {
				cuts++
			}
		}
		if cuts == 0 {
			t.Fatalf("p=%d: no block edge cuts a pair; the fixture does not exercise replay", p)
		}
		for wi, workers := range []int{1, 2, 3} {
			for _, strategy := range []string{"static", "dynamic"} {
				reg := obs.NewRegistry()
				par := base
				if strategy == "dynamic" {
					par.DynamicChunk = chunks[wi]
				}
				name := fmt.Sprintf("%s W=%d", strategy, workers)
				onRanks(t, name, p, want, func(c *comm.Comm) Result {
					return LearnWithComm(on(c, workers, reg), q, kernelOf(q, pr), modules, trees, par, prng.New(23))
				})
				if got := splitStepsDump(t, reg); got != wantSteps {
					t.Errorf("%s p=%d: split_steps differ from the sequential run:\n got %s\nwant %s", name, p, got, wantSteps)
				}
			}
		}
	}
}

// TestLiveThresholdFields: every field of a live threshold's word holds its
// largest value without touching its neighbours, and a success is an add.
func TestLiveThresholdFields(t *testing.T) {
	const maxGroup, maxLane = 1<<24 - 1, 1<<laneBits - 1
	for _, c := range []struct{ q, d, lane, succ int }{
		{0, 0, 0, 0}, {blockPairs - 1, maxGroup, maxLane, MaxStepsLimit}, {5, 12345, 678, 9}, {blockPairs - 1, 0, maxLane, 0},
	} {
		w := newLiveThreshold(c.q, c.d)&^laneMask | liveThreshold(c.lane)<<laneShift
		w += liveThreshold(c.succ)
		if w.pair() != c.q || w.group() != c.d || w.lane() != c.lane || w.succ() != c.succ {
			t.Errorf("%+v packs to pair %d group %d lane %d succ %d", c, w.pair(), w.group(), w.lane(), w.succ())
		}
	}
	if blockPairs > 8 {
		t.Errorf("blockPairs = %d does not fit the word's three pair bits", blockPairs)
	}
	// A node at the 2²⁴-observation limit gets blocks of one pair, whose
	// lanes fit.
	if got := blockLen(1 << 24); got != 1 {
		t.Errorf("blockLen at 2²⁴ observations = %d, want 1", got)
	}
	if got := blockLen(30); got != blockPairs {
		t.Errorf("blockLen at 30 observations = %d, want %d", got, blockPairs)
	}
}

// BenchmarkPosterior is one full candidate sweep through the evaluator
// (substream derivation included: it is per pair, and part of the cost
// being measured). "eval" holds every live threshold to 32 steps, so none
// retires early; "stop" runs the learn's rule (stopTable(64)), where
// thresholds retire one by one, and reports per pair-step the live
// thresholds and the decision lanes (live thresholds that are neither an
// empty side nor a repeated neighbour).
func BenchmarkPosterior(b *testing.B) {
	q, modules, trees, _ := fixture(b, 1)
	for _, c := range []struct {
		name     string
		maxSteps int
		stop     []bool
	}{{"eval", 32, fixedSteps(32)}, {"stop", 64, stopTable(64)}} {
		b.Run(c.name, func(b *testing.B) {
			ev := newEvaluator(rank.Self(nil), q, kernelOf(q, score.DefaultPrior()), modules, trees, Params{MaxSteps: c.maxSteps}, prng.New(11))
			ev.stop = c.stop
			for i := 0; i < b.N; i++ {
				ev.eval(0, ev.total)
			}
			sc := ev.scratches[0]
			pairSteps := float64(sc.pairSteps)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairSteps, "ns/pair-step")
			b.ReportMetric(float64(sc.decisions)/pairSteps, "live/pair-step")
			b.ReportMetric(float64(sc.decisions-sc.empty-sc.repeated)/pairSteps, "lanes/pair-step")
		})
	}
}

package splits

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"parsimone/internal/comm"
	"parsimone/internal/obs"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/synth"
	"parsimone/internal/trace"
	"parsimone/internal/tree"
)

// fixture builds a small module set with trees from synthetic data.
func fixture(t testing.TB, seed uint64) (*score.QData, [][]int, [][]*tree.Tree, *synth.Truth) {
	t.Helper()
	d, truth, err := synth.Generate(synth.Config{
		N: 20, M: 30, Regulators: 3, Modules: 2, Noise: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Standardize()
	q := score.QuantizeData(d)
	pr := score.DefaultPrior()
	// Ground-truth modules as the module set (members only).
	modules := make([][]int, truth.NumModules)
	for x, mod := range truth.ModuleOf {
		if mod >= 0 {
			modules[mod] = append(modules[mod], x)
		}
	}
	// One tree per module from an even observation clustering.
	clusters := func(k int) [][]int {
		out := make([][]int, k)
		for j := 0; j < q.M; j++ {
			out[j*k/q.M] = append(out[j*k/q.M], j)
		}
		return out
	}
	trees := make([][]*tree.Tree, len(modules))
	for mi, vars := range modules {
		trees[mi] = []*tree.Tree{tree.Build(q, pr, vars, clusters(4), nil)}
	}
	return q, modules, trees, truth
}

// on is the run context of c's rank at W workers, its metrics going to reg
// (nil: unobserved).
func on(c *comm.Comm, workers int, reg *obs.Registry) rank.Context {
	return rank.Context{Comm: c, Workers: workers, Hooks: obs.NewHooks(nil, reg, nil)}
}

// registryJSON returns the registry's JSON dump.
func registryJSON(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// onRanks runs learn on a p-rank world and reports every rank whose result
// is not want.
func onRanks(t *testing.T, name string, p int, want Result, learn func(c *comm.Comm) Result) {
	t.Helper()
	_, err := comm.Run(p, func(c *comm.Comm) error {
		if got := learn(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s p=%d rank %d: splits differ", name, p, c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s p=%d: %v", name, p, err)
	}
}

// selectSplits is the per-node selection over the full posterior vector: J
// weighted + J uniform picks over the retained (non-zero posterior)
// candidates per node, in canonical node order, consuming the shared stream
// identically on every rank. It is the reference the segmented scan
// (selectScan) reproduces without the vector, on every world size.
func selectSplits(q *score.QData, nodes []*nodeRef, posteriors []float64, par Params, g *prng.MRG3) Result {
	var res Result
	for _, ref := range nodes {
		ps := posteriors[ref.offset : ref.offset+ref.count]
		weights := make([]uint64, len(ps))
		var retained []int
		for i, p := range ps {
			// score.QuantizeProb, not an ad-hoc rounding: a retained
			// (positive-posterior) candidate must map to a positive weight
			// or WeightedIndex could face an all-zero vector and return -1.
			weights[i] = score.QuantizeProb(p)
			if p > 0 {
				retained = append(retained, i)
			}
		}
		if len(retained) == 0 {
			continue
		}
		mk := func(local int) Assigned { return ref.assigned(q, par.Candidates, local, ps[local]) }
		for s := 0; s < par.NumSplits; s++ {
			wi := g.WeightedIndex(weights)
			res.Weighted = append(res.Weighted, mk(wi))
		}
		for s := 0; s < par.NumSplits; s++ {
			ui := retained[g.Intn(len(retained))]
			res.Uniform = append(res.Uniform, mk(ui))
		}
	}
	return res
}

func TestLearnBasic(t *testing.T) {
	q, modules, trees, _ := fixture(t, 1)
	res := Learn(q, score.DefaultPrior(), modules, trees, Params{NumSplits: 2}, prng.New(5), nil)
	if len(res.Weighted) == 0 || len(res.Uniform) == 0 {
		t.Fatal("no splits assigned")
	}
	if len(res.Weighted) != len(res.Uniform) {
		t.Fatalf("weighted %d != uniform %d", len(res.Weighted), len(res.Uniform))
	}
	for _, a := range res.Weighted {
		if a.Posterior <= 0 || a.Posterior > 1 {
			t.Fatalf("posterior %v out of (0,1]", a.Posterior)
		}
		if a.Module < 0 || a.Module >= len(modules) {
			t.Fatalf("module %d out of range", a.Module)
		}
		if a.Parent < 0 || a.Parent >= q.N {
			t.Fatalf("parent %d out of range", a.Parent)
		}
		if a.NodeObs < 2 {
			t.Fatalf("node with %d observations produced a split", a.NodeObs)
		}
	}
}

func TestLearnSplitsPerNode(t *testing.T) {
	q, modules, trees, _ := fixture(t, 2)
	j := 3
	res := Learn(q, score.DefaultPrior(), modules, trees, Params{NumSplits: j}, prng.New(6), nil)
	// Count per (module, tree, node): must be exactly J where present.
	counts := map[[3]int]int{}
	for _, a := range res.Weighted {
		counts[[3]int{a.Module, a.Tree, a.Node}]++
	}
	for key, c := range counts {
		if c != j {
			t.Fatalf("node %v has %d weighted splits, want %d", key, c, j)
		}
	}
}

func TestLearnDeterministic(t *testing.T) {
	q, modules, trees, _ := fixture(t, 3)
	a := Learn(q, score.DefaultPrior(), modules, trees, Params{}, prng.New(7), nil)
	b := Learn(q, score.DefaultPrior(), modules, trees, Params{}, prng.New(7), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different splits")
	}
}

// TestParallelMatchesSequential: the §4.2 contract for the dominant phase.
func TestParallelMatchesSequential(t *testing.T) {
	q, modules, trees, _ := fixture(t, 4)
	pr := score.DefaultPrior()
	par := Params{NumSplits: 2, MaxSteps: 24}
	want := Learn(q, pr, modules, trees, par, prng.New(9), nil)
	for _, p := range []int{1, 2, 3, 5, 8} {
		onRanks(t, "static", p, want, func(c *comm.Comm) Result {
			return LearnWithComm(on(c, 1, nil), q, kernelOf(q, pr), modules, trees, par, prng.New(9))
		})
	}
}

// TestTrueRegulatorsScoreHighly: splits on a module's true regulator must
// appear among the assigned splits with high posterior — the signal the
// whole pipeline exists to find.
func TestTrueRegulatorsScoreHighly(t *testing.T) {
	q, modules, trees, truth := fixture(t, 5)
	res := Learn(q, score.DefaultPrior(), modules, trees,
		Params{NumSplits: 4}, prng.New(11), nil)
	// For each module, check whether any weighted split uses a true
	// regulator; across modules at least one must, and its posterior must
	// be substantial.
	bestTrue := 0.0
	for _, a := range res.Weighted {
		for _, r := range truth.Regulators[a.Module] {
			if a.Parent == r && a.Posterior > bestTrue {
				bestTrue = a.Posterior
			}
		}
	}
	if bestTrue < 0.5 {
		t.Fatalf("no true regulator split with posterior ≥ 0.5 (best %v)", bestTrue)
	}
}

func TestPosteriorDegenerateSplit(t *testing.T) {
	q, modules, trees, _ := fixture(t, 6)
	ev := newEvaluator(rank.Self(nil), q, kernelOf(q, score.DefaultPrior()), modules, trees, Params{}, prng.New(1))
	ref := ev.nodes[0]
	// Find the candidate whose value is the node's maximum for parent 0:
	// everything goes left → degenerate → posterior 0, zero steps, no draws.
	maxIdx, maxVal := 0, q.At(ev.par.Candidates[0], ref.node.Obs[0])
	for k, j := range ref.node.Obs {
		if v := q.At(ev.par.Candidates[0], j); v >= maxVal {
			maxVal, maxIdx = v, k
		}
	}
	ci := ref.offset + maxIdx // parent index 0 → offset + obs index
	p, steps, _ := ev.eval(ci, ci+1)
	if p[0] != 0 || steps[0] != 0 || ev.scratches[0].draws != 0 {
		t.Fatalf("degenerate split: posterior %v steps %d draws %d, want 0, 0, 0", p[0], steps[0], ev.scratches[0].draws)
	}
}

func TestPosteriorStepBounds(t *testing.T) {
	q, modules, trees, _ := fixture(t, 7)
	ev := newEvaluator(rank.Self(nil), q, kernelOf(q, score.DefaultPrior()), modules, trees, Params{MaxSteps: 32}, prng.New(3))
	_, steps, _ := ev.eval(0, ev.total)
	early := 0
	for ci, s := range steps {
		if s != 0 && (s < minSteps || s > ev.par.MaxSteps) {
			t.Fatalf("candidate %d: steps %d outside [%d, %d]", ci, s, minSteps, ev.par.MaxSteps)
		}
		if s != 0 && s < ev.par.MaxSteps {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no threshold retired before MaxSteps: the stop table never fired")
	}
}

func TestEnumerateOffsets(t *testing.T) {
	q, modules, trees, _ := fixture(t, 8)
	par := Params{}.WithDefaults(q.N)
	nodes := enumerate(q, modules, trees, par.Candidates)
	offset := 0
	for _, ref := range nodes {
		if ref.offset != offset {
			t.Fatalf("node offset %d, want %d", ref.offset, offset)
		}
		if ref.count != len(par.Candidates)*len(ref.node.Obs) {
			t.Fatalf("node count %d, want %d", ref.count, len(par.Candidates)*len(ref.node.Obs))
		}
		if len(ref.colStats) != len(ref.node.Obs) {
			t.Fatal("column stats length mismatch")
		}
		offset += ref.count
	}
}

func TestCandidateRestriction(t *testing.T) {
	q, modules, trees, _ := fixture(t, 9)
	cands := []int{0, 1, 2} // regulators only
	res := Learn(q, score.DefaultPrior(), modules, trees,
		Params{Candidates: cands}, prng.New(13), nil)
	for _, a := range append(res.Weighted, res.Uniform...) {
		if a.Parent > 2 {
			t.Fatalf("split uses parent %d outside candidate list", a.Parent)
		}
	}
}

func TestWorkloadRecordsImbalanceSource(t *testing.T) {
	q, modules, trees, _ := fixture(t, 10)
	wl := &trace.Workload{}
	Learn(q, score.DefaultPrior(), modules, trees, Params{}, prng.New(15), wl)
	ph := wl.Phase(PhaseAssign)
	if ph == nil || len(ph.Items) == 0 {
		t.Fatal("no work recorded")
	}
	if ph.PerSegmentBarrier {
		t.Fatal("split phase must be a single global partition, not per-segment")
	}
	// Item costs must actually vary (the imbalance source).
	minC, maxC := ph.Items[0].Cost, ph.Items[0].Cost
	for _, it := range ph.Items {
		minC = min(minC, it.Cost)
		maxC = max(maxC, it.Cost)
	}
	if maxC <= minC {
		t.Fatal("all split costs identical; no imbalance to study")
	}
}

// TestRecordWorkChargesScan: the work record charges the paper's exchange on
// more than one rank — the segmented scan's two all-gathers of one weight
// partial per node and the picks made — not a posterior all-gather of every
// candidate.
func TestRecordWorkChargesScan(t *testing.T) {
	q, modules, trees, _ := fixture(t, 10)
	wl := &trace.Workload{}
	res := Learn(q, score.DefaultPrior(), modules, trees, Params{}, prng.New(15), wl)
	ph := wl.Phase(PhaseAssign)
	ev := newEvaluator(rank.Self(nil), q, kernelOf(q, score.DefaultPrior()), modules, trees, Params{}, prng.New(15))
	if want := int64(len(ev.nodes) + len(res.Weighted) + len(res.Uniform)); ph.Words != want {
		t.Errorf("words %d, want nodes + picks = %d", ph.Words, want)
	}
	if ph.Collectives != 2 || ph.Words != 30 {
		t.Errorf("charged %d collectives, %d words; pinned 2, 30 (a posterior gather: %d words)", ph.Collectives, ph.Words, ev.total)
	}
}

// TestParamsWithDefaults: zero and negative counts select their defaults,
// and nil Candidates means every variable.
func TestParamsWithDefaults(t *testing.T) {
	cases := []struct {
		name             string
		in               Params
		splits, maxSteps int
	}{
		{"zero value", Params{}, 2, 64},
		{"negative counts fall back", Params{NumSplits: -1, MaxSteps: -64}, 2, 64},
		{"explicit values kept", Params{NumSplits: 3, MaxSteps: 32}, 3, 32},
	}
	for _, tc := range cases {
		p := tc.in.WithDefaults(10)
		if p.NumSplits != tc.splits || p.MaxSteps != tc.maxSteps {
			t.Errorf("%s: got %+v", tc.name, p)
		}
		if len(p.Candidates) != 10 || p.Candidates[9] != 9 {
			t.Errorf("%s: candidate default: %v", tc.name, p.Candidates)
		}
	}
}

// TestSelectSplitsPosteriorExtremes is the regression test for the shared
// quantizer: selection must stay well-defined (and p-invariant, via the
// shared grid) when posteriors sit at the extremes — exactly 0, sub-ULP
// positive, and exactly 1. Before score.QuantizeProb, a sub-ULP posterior
// quantized to weight 0 while staying "retained", so a node whose only
// retained candidates were sub-ULP handed WeightedIndex an all-zero vector,
// which returns -1 and crashed the selection. The same posteriors, cut into
// spans as static blocks or as chunks of 1 and 7 dealt round the ranks, go
// through the segmented scan on 2 and 3 ranks, whose span-local find must
// land where selectSplits does on all-zero and sub-ULP nodes too.
func TestSelectSplitsPosteriorExtremes(t *testing.T) {
	q, modules, trees, _ := fixture(t, 5)
	par := Params{NumSplits: 2}.WithDefaults(q.N)
	nodes := enumerate(q, modules, trees, par.Candidates)
	total := 0
	for _, ref := range nodes {
		total += ref.count
	}
	tiny := 1e-300 // rounds to zero on the 2^32 grid without QuantizeProb's floor
	for name, fill := range map[string]func(i int) float64{
		"all zero":       func(int) float64 { return 0 },
		"all one":        func(int) float64 { return 1 },
		"sub-ULP only":   func(int) float64 { return tiny },
		"mixed extremes": func(i int) float64 { return []float64{0, tiny, 1}[i%3] },
	} {
		posteriors := make([]float64, total)
		for i := range posteriors {
			posteriors[i] = fill(i)
		}
		res := selectSplits(q, nodes, posteriors, par, prng.New(21))
		for _, a := range append(append([]Assigned(nil), res.Weighted...), res.Uniform...) {
			if a.Posterior <= 0 {
				t.Fatalf("%s: selected a zero-posterior candidate: %+v", name, a)
			}
		}
		if name == "all zero" && (len(res.Weighted) != 0 || len(res.Uniform) != 0) {
			t.Fatalf("all-zero posteriors still selected splits: %+v", res)
		}
		if name != "all zero" && len(res.Weighted) == 0 {
			t.Fatalf("%s: no splits selected", name)
		}
		for _, p := range []int{1, 2, 3} {
			for _, chunk := range []int{0, 1, 7} {
				onRanks(t, fmt.Sprintf("%s chunk=%d", name, chunk), p, res, func(c *comm.Comm) Result {
					var spans []span
					if chunk == 0 {
						lo, hi := comm.BlockRange(total, p, c.Rank())
						spans = append(spans, newSpan(lo, posteriors[lo:hi]))
					}
					for lo := c.Rank() * chunk; chunk > 0 && lo < total; lo += p * chunk {
						spans = append(spans, newSpan(lo, posteriors[lo:min(lo+chunk, total)]))
					}
					return selectScan(c, q, nodes, spans, par, prng.New(21))
				})
			}
		}
	}
}

func BenchmarkLearn(b *testing.B) {
	q, modules, trees, _ := fixture(b, 1)
	pr := score.DefaultPrior()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Learn(q, pr, modules, trees, Params{MaxSteps: 16}, prng.New(uint64(i)), nil)
	}
}

// TestDynamicMatchesStatic: the dynamic shared-counter distribution
// (the paper's §6 future work) must return exactly the static scheme's
// result — per-pair substreams make posteriors independent of which rank
// computes them.
func TestDynamicMatchesStatic(t *testing.T) {
	q, modules, trees, _ := fixture(t, 11)
	pr := score.DefaultPrior()
	par := Params{NumSplits: 2, MaxSteps: 24}
	want := Learn(q, pr, modules, trees, par, prng.New(17), nil)
	for _, p := range []int{1, 2, 3, 5} {
		for _, chunk := range []int{0, 1, 7, 1000000} {
			par.DynamicChunk = chunk
			onRanks(t, fmt.Sprintf("dynamic chunk=%d", chunk), p, want, func(c *comm.Comm) Result {
				return LearnWithComm(on(c, 1, nil), q, kernelOf(q, pr), modules, trees, par, prng.New(17))
			})
		}
	}
}

// TestScanSelectionMatchesGather: the paper's segmented-scan selection, the
// one selection of every world, must choose bit-identical splits to
// selectSplits over the gathered posterior vector — integer weights make the
// distributed prefix sums exact — on one rank as on many.
func TestScanSelectionMatchesGather(t *testing.T) {
	q, modules, trees, _ := fixture(t, 12)
	pr := score.DefaultPrior()
	par := Params{NumSplits: 3, MaxSteps: 24}
	ev := newEvaluator(rank.Self(nil), q, kernelOf(q, pr), modules, trees, par, prng.New(31))
	post, _, _ := ev.eval(0, ev.total)
	want := selectSplits(q, ev.nodes, post, ev.par, prng.New(31))
	for _, p := range []int{1, 2, 3, 5, 8} {
		onRanks(t, "scan", p, want, func(c *comm.Comm) Result {
			return LearnWithComm(on(c, 1, nil), q, kernelOf(q, pr), modules, trees, par, prng.New(31))
		})
	}
}

// TestWorkersInvariance: the intra-rank worker pool must not change the
// result sequentially, whatever the worker count (TestCutPairInvariance
// sweeps p × W over the two parallel paths).
func TestWorkersInvariance(t *testing.T) {
	q, modules, trees, _ := fixture(t, 14)
	pr := score.DefaultPrior()
	want := Learn(q, pr, modules, trees, Params{NumSplits: 2, MaxSteps: 24}, prng.New(23), nil)
	for _, workers := range []int{2, 3, 8} {
		par := Params{NumSplits: 2, MaxSteps: 24}
		if got := LearnWithComm(on(comm.Self(), workers, nil), q, kernelOf(q, pr), modules, trees, par, prng.New(23)); !reflect.DeepEqual(got, want) {
			t.Fatalf("sequential W=%d: splits differ", workers)
		}
	}
}

// TestWorkersTraceDeterministic: with W workers the recorded trace is
// identical to the serial recording (canonical candidate order), and a
// work-only hooks value communicates exactly what an unobserved run does.
func TestWorkersTraceDeterministic(t *testing.T) {
	q, modules, trees, _ := fixture(t, 15)
	pr := score.DefaultPrior()
	par := Params{MaxSteps: 24}
	unobserved := comm.Self()
	LearnWithComm(on(unobserved, 1, nil), q, kernelOf(q, pr), modules, trees, par, prng.New(29))
	record := func(workers int) *trace.Phase {
		wl := &trace.Workload{}
		c := comm.Self()
		LearnWithComm(rank.Context{Comm: c, Workers: workers, Hooks: obs.NewHooks(nil, nil, wl)}, q, kernelOf(q, pr), modules, trees, par, prng.New(29))
		if got, want := c.Stats(), unobserved.Stats(); got != want {
			t.Fatalf("W=%d: work recording communicated %+v, unobserved %+v", workers, got, want)
		}
		return wl.Phase(PhaseAssign)
	}
	serial := record(1)
	for _, workers := range []int{1, 4} {
		a := record(workers)
		if !reflect.DeepEqual(a.Items, serial.Items) {
			t.Fatalf("W=%d: trace items differ from serial recording", workers)
		}
		if a.Collectives != serial.Collectives || a.Words != serial.Words {
			t.Fatalf("W=%d: %d collectives, %d words recorded; serial %d, %d", workers, a.Collectives, a.Words, serial.Collectives, serial.Words)
		}
	}
}

// BenchmarkLearnWorkers measures the split-scoring wall time at W ∈ {1,2,4,8}
// on one fixture — the intra-rank speedup probe (>1 on multicore hosts).
func BenchmarkLearnWorkers(b *testing.B) {
	q, modules, trees, _ := fixture(b, 1)
	pr := score.DefaultPrior()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("W%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LearnWithComm(on(comm.Self(), workers, nil), q, kernelOf(q, pr), modules, trees, Params{MaxSteps: 32}, prng.New(uint64(i)))
			}
		})
	}
}

// TestScanUsesLessCommunication: both schedules move what the segmented
// scan's two exchanges carry and no more. Each exchange is one all-gather,
// in which every rank's slice reaches the p−1 others once, so it moves
// (p−1)·len elements: one partial per node piece of a scored span, and at
// most 2J picks per node. The dynamic schedule adds one element per Next —
// one per chunk and one more per rank, which finds the list exhausted — and
// the counter's broadcast. The total must stay within that bound, and below
// the candidate count a posterior all-gather would carry. The static
// schedule sends nothing else: its two all-gathers are exactly
// 2·p·⌈log₂ p⌉ messages.
func TestScanUsesLessCommunication(t *testing.T) {
	q, modules, trees, _ := fixture(t, 13)
	pr := score.DefaultPrior()
	ev := newEvaluator(rank.Self(nil), q, kernelOf(q, pr), modules, trees, Params{NumSplits: 2}, prng.New(3))
	nodes, j := len(ev.nodes), ev.par.NumSplits
	// pieces counts the partials of the span [lo, hi): the nodes it meets.
	pieces := func(lo, hi int) int {
		if hi <= lo {
			return 0
		}
		return nodeIndexAt(ev.nodes, hi-1) - nodeIndexAt(ev.nodes, lo) + 1
	}
	for _, chunk := range []int{0, 7} {
		for _, p := range []int{2, 3, 4, 5, 8} {
			par := Params{NumSplits: 2, MaxSteps: 16, DynamicChunk: chunk}
			stats, err := comm.Run(p, func(c *comm.Comm) error {
				LearnWithComm(on(c, 1, nil), q, kernelOf(q, pr), modules, trees, par, prng.New(3))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var elems, sends int64
			for _, s := range stats {
				elems += s.Elems
				sends += s.Sends
			}
			if want := int64(2 * p * bits.Len(uint(p-1))); chunk == 0 && sends != want {
				t.Errorf("p=%d: the static schedule sent %d messages, want 2·p·⌈log₂ p⌉ = %d", p, sends, want)
			}
			partials, extra := 0, 0
			if chunk == 0 {
				for r := range p {
					partials += pieces(comm.BlockRange(ev.total, p, r))
				}
			} else {
				chunks := (ev.total-1)/chunk + 1
				for k := range chunks {
					partials += pieces(ev.chunkStart(chunk, k), ev.chunkStart(chunk, k+1))
				}
				extra = chunks + p + p - 1
			}
			bound := int64((p-1)*(partials+2*j*nodes) + extra)
			if elems > bound {
				t.Errorf("chunk=%d p=%d: %d elements moved, bound (p−1)·(partials+2J·nodes)+%d = %d", chunk, p, elems, extra, bound)
			}
			if elems >= int64(ev.total) {
				t.Errorf("chunk=%d p=%d: %d elements moved, not below the %d candidates a posterior gather carries", chunk, p, elems, ev.total)
			}
		}
	}
}

// TestParamsValidate: nil Candidates means "all variables" and is fine; a
// non-nil empty slice enumerates zero candidate splits and must be rejected
// instead of silently yielding an empty Result; an index that is not a
// variable, or one listed twice, is rejected with its position named.
func TestParamsValidate(t *testing.T) {
	const n = 30
	for _, tc := range []struct {
		candidates []int
		refused    string // "" when accepted
	}{
		{nil, ""},
		{[]int{0, 2}, ""},
		{[]int{n - 1, 0}, ""},
		{[]int{}, "non-empty"},
		{[]int{99}, "Candidates[0] = 99 is not one of the 30 variables"},
		{[]int{4, -1}, "Candidates[1] = -1 is not one of the 30 variables"},
		{[]int{2, n}, "Candidates[1] = 30 is not one of the 30 variables"},
		{[]int{3, 3, 4}, "Candidates[1] = 3 repeats Candidates[0]"},
		{[]int{5, 3, 4, 5}, "Candidates[3] = 5 repeats Candidates[0]"},
	} {
		err := (Params{Candidates: tc.candidates}).Validate(n)
		if tc.refused == "" && err != nil {
			t.Errorf("Candidates %v refused: %v", tc.candidates, err)
		}
		if tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)) {
			t.Errorf("Candidates %v: error %v, want one naming %q", tc.candidates, err, tc.refused)
		}
	}
}

// TestScanMetricsParity: the static schedule records the split_steps
// histogram and the kernel counters like a one-rank world — it once skipped
// them — and its split_steps entry is byte-identical to the one-rank and the
// dynamic schedule's, as recordMetrics promises for every strategy.
func TestScanMetricsParity(t *testing.T) {
	q, modules, trees, _ := fixture(t, 16)
	pr := score.DefaultPrior()
	dump := func(p, chunk int) string {
		reg := obs.NewRegistry()
		par := Params{NumSplits: 2, MaxSteps: 24, DynamicChunk: chunk}
		_, err := comm.Run(p, func(c *comm.Comm) error {
			LearnWithComm(on(c, 1, reg), q, kernelOf(q, pr), modules, trees, par, prng.New(21))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(registryJSON(t, reg))
	}
	static := dump(2, 0)
	if !strings.Contains(static, "split_steps") {
		t.Fatal("scan path did not record the split_steps histogram")
	}
	if !strings.Contains(static, "kernel_table_hits_total") {
		t.Fatal("scan path did not record the kernel cache counters")
	}
	want := splitSteps(t, static)
	for name, other := range map[string]string{"one rank": dump(1, 0), "dynamic p=2": dump(2, 7)} {
		if got := splitSteps(t, other); got != want {
			t.Errorf("%s split_steps %s, static p=2 %s", name, got, want)
		}
	}
}

// splitSteps returns the split_steps entry of a registry JSON dump.
func splitSteps(t *testing.T, dump string) string {
	t.Helper()
	var entries []json.RawMessage
	if err := json.Unmarshal([]byte(dump), &entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		var head struct{ Name string }
		if err := json.Unmarshal(e, &head); err != nil {
			t.Fatal(err)
		}
		if head.Name == "split_steps" {
			return string(e)
		}
	}
	t.Fatal("dump has no split_steps entry")
	return ""
}

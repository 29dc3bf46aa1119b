package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"parsimone/internal/comm"
	"parsimone/internal/dataset"
	"parsimone/internal/ganesh"
	"parsimone/internal/obs"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/synth"
)

func testData(t testing.TB, n, m int, seed uint64) (*dataset.Data, *synth.Truth) {
	t.Helper()
	d, truth, err := synth.Generate(synth.Config{
		N: n, M: m, Regulators: max(2, n/10), Modules: max(2, n/12), Noise: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, truth
}

// fastOptions keeps unit-test runs quick.
func fastOptions(seed uint64) Options {
	opt := DefaultOptions()
	opt.Seed = seed
	opt.Ganesh.Updates = 1
	opt.Module.Splits = splits.Params{NumSplits: 2, MaxSteps: 16}
	return opt
}

// worldOutputs runs one unsupervised world of p ranks through runWorld, the
// single attempt Supervise's loop makes, over inputs prepared as Supervise
// prepares them, and returns every rank's output and message traffic.
func worldOutputs(t testing.TB, p int, d *dataset.Data, opt Options) ([]*Output, []comm.Stats) {
	t.Helper()
	tr, err := check(p, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := tr.prepare(d)
	var key digest
	if opt.CheckpointDir != "" {
		key = runDigest(d, opt)
	}
	outs, stats, err := runWorld(p, d, q, score.NewKernel(opt.Prior, q.N*q.M), key, opt)
	if err != nil {
		t.Fatal(err)
	}
	return outs, stats
}

func TestLearnEndToEnd(t *testing.T) {
	d, _ := testData(t, 30, 24, 1)
	out, err := Learn(d, fastOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Network == nil || len(out.Network.Modules) == 0 {
		t.Fatal("no modules learned")
	}
	if err := out.Network.Validate(); err != nil {
		t.Fatal(err)
	}
	// Task breakdown present and dominated by module learning
	// (paper §5.3.1: ≥94.7 % sequentially).
	for _, task := range []string{TaskGaneSH, TaskConsensus, TaskModules} {
		if out.Timers.Get(task) < 0 {
			t.Fatalf("task %s missing", task)
		}
	}
}

func TestLearnDeterministic(t *testing.T) {
	d, _ := testData(t, 24, 20, 2)
	a, err := Learn(d, fastOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Learn(d, fastOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(a.Network, b.Network) {
		t.Fatal("identical seeds gave different networks")
	}
	c, err := Learn(d, fastOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if result.Equal(a.Network, c.Network) {
		t.Fatal("different seeds gave identical networks")
	}
}

// TestPInvariance is the paper's headline correctness property (§4.2): the
// parallel engine learns exactly the network the sequential engine learns,
// for every processor count.
func TestPInvariance(t *testing.T) {
	d, _ := testData(t, 24, 20, 3)
	opt := fastOptions(7)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		got, err := LearnParallel(p, d, opt)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !result.Equal(got.Network, want.Network) {
			t.Fatalf("p=%d: network differs from sequential", p)
		}
	}
	// Hybrid sweep: the intra-rank worker pool must preserve the same
	// network for every (p, W) combination, including the sequential
	// engine with workers.
	for _, workers := range []int{1, 2, 4} {
		opt.Workers = workers
		got, err := Learn(d, opt)
		if err != nil {
			t.Fatalf("seq W=%d: %v", workers, err)
		}
		if !result.Equal(got.Network, want.Network) {
			t.Fatalf("seq W=%d: network differs", workers)
		}
		for _, p := range []int{1, 2, 4} {
			got, err := LearnParallel(p, d, opt)
			if err != nil {
				t.Fatalf("p=%d W=%d: %v", p, workers, err)
			}
			if !result.Equal(got.Network, want.Network) {
				t.Fatalf("p=%d W=%d: network differs from sequential", p, workers)
			}
		}
	}
}

func TestLearnRecordsWork(t *testing.T) {
	d, _ := testData(t, 24, 20, 4)
	opt := fastOptions(9)
	opt.RecordWork = true
	out, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Workload == nil || out.Workload.TotalCost() <= 0 {
		t.Fatal("work not recorded")
	}
	if out.Workload.Phase(splits.PhaseAssign) == nil {
		t.Fatal("split phase missing from workload")
	}
}

// TestLearnIsOneRankWorld: there is one engine, and a sequential run is it on
// a one-rank world (DESIGN §20) — Learn, LearnParallel(1, …) and one
// unsupervised world of one rank (runWorld) report the same network, event
// stream, registry, recorded workload and cancellation checks, with every
// sink attached.
func TestLearnIsOneRankWorld(t *testing.T) {
	d, _ := testData(t, 24, 20, 4)
	launch := map[string]func(Options) (*Output, error){
		"Learn":         func(opt Options) (*Output, error) { return Learn(d, opt) },
		"LearnParallel": func(opt Options) (*Output, error) { return LearnParallel(1, d, opt) },
		"runWorld": func(opt Options) (*Output, error) {
			outs, _ := worldOutputs(t, 1, d, opt)
			return outs[0], nil
		},
	}
	type report struct {
		out               *Output
		network, registry bytes.Buffer
		workload          string
	}
	reports := map[string]*report{}
	for name, learn := range launch {
		opt := fastOptions(9)
		opt.Workers = 2
		opt.Events = true
		opt.Metrics = obs.NewRegistry()
		opt.RecordWork = true
		opt.CheckpointDir = t.TempDir()
		out, err := learn(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := &report{out: out}
		if err := out.Network.WriteBinary(&r.network); err != nil {
			t.Fatal(err)
		}
		if err := opt.Metrics.WriteJSON(&r.registry); err != nil {
			t.Fatal(err)
		}
		r.workload = phaseTotals(out.Workload)
		reports[name] = r
	}
	want := reports["Learn"]
	if len(want.out.Events) == 0 || want.workload == "" || want.out.CancelChecks == 0 {
		t.Fatalf("Learn reported %d events, workload %q, %d cancel checks", len(want.out.Events), want.workload, want.out.CancelChecks)
	}
	for _, name := range []string{"LearnParallel", "runWorld"} {
		got := reports[name]
		if !bytes.Equal(got.network.Bytes(), want.network.Bytes()) {
			t.Errorf("%s: binary network differs from Learn's", name)
		}
		if err := obs.DiffCanonical(got.out.Events, want.out.Events); err != nil {
			t.Errorf("%s: events differ from Learn's: %v", name, err)
		}
		if !bytes.Equal(got.registry.Bytes(), want.registry.Bytes()) {
			t.Errorf("%s: registry differs from Learn's:\n%s\nwant\n%s", name, got.registry.Bytes(), want.registry.Bytes())
		}
		if got.workload != want.workload {
			t.Errorf("%s: workload\n%swant\n%s", name, got.workload, want.workload)
		}
		if got.out.CancelChecks != want.out.CancelChecks {
			t.Errorf("%s: %d cancel checks, Learn %d", name, got.out.CancelChecks, want.out.CancelChecks)
		}
	}
}

func TestLearnParallelRejectsRecording(t *testing.T) {
	d, _ := testData(t, 20, 16, 5)
	opt := fastOptions(11)
	opt.RecordWork = true
	if _, err := LearnParallel(2, d, opt); err == nil {
		t.Fatal("parallel engine accepted work recording")
	}
}

func TestLearnValidation(t *testing.T) {
	d, _ := testData(t, 20, 16, 6)
	opt := fastOptions(1)
	opt.GaneshRuns = 0
	if _, err := Learn(d, opt); err == nil {
		t.Fatal("GaneshRuns 0 accepted")
	}
	opt = fastOptions(1)
	opt.CoOccurrenceThreshold = 1.5
	if _, err := Learn(d, opt); err == nil {
		t.Fatal("bad threshold accepted")
	}
	opt = fastOptions(1)
	opt.Prior.Alpha0 = -1
	if _, err := Learn(d, opt); err == nil {
		t.Fatal("bad prior accepted")
	}
	// A non-nil empty candidate list means "no parents allowed" by mistake,
	// not "default to all variables" — reject it instead of learning a
	// parentless forest.
	opt = fastOptions(1)
	opt.Module.Splits.Candidates = []int{}
	if _, err := Learn(d, opt); err == nil {
		t.Fatal("non-nil empty candidate list accepted")
	}
	tiny := dataset.New(1, 1)
	if _, err := Learn(tiny, fastOptions(1)); err == nil {
		t.Fatal("1×1 data set accepted")
	}
}

func TestLearnDoesNotMutateInput(t *testing.T) {
	d, _ := testData(t, 20, 16, 7)
	before := append([]float64(nil), d.Values...)
	if _, err := Learn(d, fastOptions(13)); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if d.Values[i] != before[i] {
			t.Fatal("input data mutated")
		}
	}
}

func TestMultipleGaneshRuns(t *testing.T) {
	d, _ := testData(t, 24, 20, 8)
	opt := fastOptions(15)
	opt.GaneshRuns = 3
	out, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Network.Validate(); err != nil {
		t.Fatal(err)
	}
	// With a threshold below 1/G, consensus still forms modules.
	if len(out.Network.Modules) == 0 {
		t.Fatal("no modules from multi-run ensemble")
	}
}

// TestModuleRecovery: the full pipeline must group true module members
// together far better than chance (measured by ARI over member genes).
func TestModuleRecovery(t *testing.T) {
	d, truth, err := synth.Generate(synth.Config{
		N: 40, M: 50, Regulators: 4, Modules: 3, Noise: 0.2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOptions(17)
	opt.Ganesh.Updates = 3
	out, errLearn := Learn(d, opt)
	if errLearn != nil {
		t.Fatal(errLearn)
	}
	learned := out.Network.ModuleOf()
	// ARI excludes items labeled -1 on either side (regulators in the
	// truth, unassigned variables in the learned network).
	ari := result.AdjustedRandIndex(truth.ModuleOf, learned)
	if ari < 0.3 {
		t.Fatalf("module recovery ARI %.3f below 0.3", ari)
	}
}

func TestDefaultOptionsMatchPaperMinimumConfig(t *testing.T) {
	opt := DefaultOptions()
	if opt.GaneshRuns != 1 {
		t.Fatal("paper's minimum config uses a single GaneSH run")
	}
	if opt.Ganesh.Updates != 1 {
		t.Fatal("paper's minimum config uses one update step")
	}
	if got := opt.Module.Tree.Updates - opt.Module.Tree.Burnin; got != 1 {
		t.Fatalf("paper's minimum config builds one tree per module, got %d", got)
	}
	if opt.Module.Splits.Candidates != nil {
		t.Fatal("default candidate set must be all variables")
	}
}

func TestGaneshTaskSubordinateToModules(t *testing.T) {
	// §5.3.1: the module-learning task dominates. Check on the recorded
	// workload (costs, not wall time, for robustness).
	d, _ := testData(t, 30, 30, 10)
	opt := fastOptions(19)
	opt.RecordWork = true
	out, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	assign := out.Workload.Phase(splits.PhaseAssign).TotalCost()
	var ganeshCost float64
	for _, name := range []string{ganesh.PhaseVarReassign, ganesh.PhaseVarMerge} {
		if ph := out.Workload.Phase(name); ph != nil {
			ganeshCost += ph.TotalCost()
		}
	}
	if assign <= ganeshCost {
		t.Fatalf("split assignment (%.0f) does not dominate GaneSH (%.0f)", assign, ganeshCost)
	}
}

func BenchmarkLearnSequential(b *testing.B) {
	d, _ := testData(b, 40, 40, 1)
	opt := fastOptions(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Learn(d, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLearnParallelP4(b *testing.B) {
	d, _ := testData(b, 40, 40, 1)
	opt := fastOptions(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LearnParallel(4, d, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterShapedOptions are the options of the benchmark's `cluster` workload:
// three GaneSH runs of two update steps, strict consensus, little split
// scoring — GaneSH and consensus are ~80 % of the learn.
func clusterShapedOptions(seed uint64) Options {
	opt := DefaultOptions()
	opt.Seed = seed
	opt.GaneshRuns = 3
	opt.Ganesh.Updates = 2
	opt.CoOccurrenceThreshold = 0.9
	opt.Module.Splits.Candidates = []int{0, 1, 2, 3, 4, 5, 6, 7}
	opt.Module.Splits.MaxSteps = 16
	return opt
}

// benchmarkLearnClusterShaped is the layer witness of the distribution rule
// (DESIGN §19) outside benchmark/: a cluster-shaped learn at 480×32 through
// Learn's one-rank world (ranks 0), two ranks, or two pool workers (`make
// bench-core`). Neither parallel shape may be more than 5 % slower than Seq;
// with every decision distributed (the constant at 0) both were 1.25–1.6×
// slower. Two ranks run the three GaneSH runs on two rank groups, so P2 is
// the one witness of the group layout (§3.2.1).
func benchmarkLearnClusterShaped(b *testing.B, ranks, workers int) {
	d, _, err := synth.Generate(synth.Config{N: 480, M: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opt := clusterShapedOptions(1)
	opt.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ranks == 0 {
			_, err = Learn(d, opt)
		} else {
			_, err = LearnParallel(ranks, d, opt)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLearnClusterShapedSeq(b *testing.B) { benchmarkLearnClusterShaped(b, 0, 0) }
func BenchmarkLearnClusterShapedP2(b *testing.B)  { benchmarkLearnClusterShaped(b, 2, 0) }
func BenchmarkLearnClusterShapedW2(b *testing.B)  { benchmarkLearnClusterShaped(b, 0, 2) }

// benchmarkLearnSplitShaped is a witness of the split layer in the paper's
// regime, where split scoring is over 90 % of a learn (§2.2.3, §5.2): one op
// learns every data set once, sequentially. Beside the time it reports the
// layer's exact work per op, read from the metrics registry of one pass
// outside the timer: pair-steps, bootstrap picks, threshold-steps (one per
// live threshold per pair-step) and the lanes among them (the decisions
// scored: neither an empty side nor a repeated neighbour), which a
// result-preserving change must leave unchanged.
func benchmarkLearnSplitShaped(b *testing.B, sets []*dataset.Data, opts []Options) {
	reg := obs.NewRegistry()
	for i, d := range sets {
		opt := opts[i]
		opt.Metrics = reg
		if _, err := Learn(d, opt); err != nil {
			b.Fatal(err)
		}
	}
	count := func(names ...string) float64 {
		var v int64
		for _, name := range names {
			v += reg.Counter(name, "", "phase", splits.PhaseAssign).Value()
		}
		return float64(v)
	}
	pairSteps, picks := count("split_pair_steps"), count("split_draws_total")
	lanes := count("split_decisions_certified_total", "split_decisions_fallback_total")
	thresholdSteps := lanes + count("split_decisions_empty_total", "split_decisions_repeated_total")
	b.ResetTimer()
	for range b.N {
		for i, d := range sets {
			if _, err := Learn(d, opts[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(pairSteps, "pair-steps/op")
	b.ReportMetric(picks, "picks/op")
	b.ReportMetric(thresholdSteps, "threshold-steps/op")
	b.ReportMetric(lanes, "lanes/op")
}

// BenchmarkLearnAssignShaped is the benchmark's assign workload as a package
// benchmark: 64 synth data sets of 64 variables × 32 observations, each
// learned with the default options (every variable a candidate parent) at
// the seed the workload's run 1 gives it.
func BenchmarkLearnAssignShaped(b *testing.B) {
	var sets []*dataset.Data
	var opts []Options
	for i := range 64 {
		seed := uint64(1001 + i)
		d, _, err := synth.Generate(synth.Config{N: 64, M: 32, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Seed = seed
		sets, opts = append(sets, d), append(opts, opt)
	}
	benchmarkLearnSplitShaped(b, sets, opts)
}

// BenchmarkLearnPaperShaped is one learn at the smallest of the paper-regime
// shapes ROADMAP item 25 names: synth 300 × 40, seed 1, three GaneSH runs of
// three updates, every variable a candidate parent (about 0.25 s a learn,
// over 90 % of it split scoring).
func BenchmarkLearnPaperShaped(b *testing.B) {
	d, _, err := synth.Generate(synth.Config{N: 300, M: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seed = 1
	opt.GaneshRuns = 3
	opt.Ganesh.Updates = 3
	benchmarkLearnSplitShaped(b, []*dataset.Data{d}, []Options{opt})
}

// TestPInvarianceDynamicSplits: the dynamic split distribution (the paper's
// §6 future work) must also reproduce the sequential network exactly.
func TestPInvarianceDynamicSplits(t *testing.T) {
	d, _ := testData(t, 24, 20, 11)
	opt := fastOptions(21)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Module.Splits.DynamicChunk = 16
	for _, p := range []int{2, 5} {
		got, err := LearnParallel(p, d, opt)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !result.Equal(got.Network, want.Network) {
			t.Fatalf("p=%d: dynamic-splits network differs from sequential", p)
		}
	}
}

// TestPInvarianceGaneshGroups: a world of p ranks executes its G GaneSH runs
// on min(p, G) disjoint rank groups (§3.2.1), with p > G, p = G and G > p
// all swept, and must still learn exactly the sequential network.
func TestPInvarianceGaneshGroups(t *testing.T) {
	d, _ := testData(t, 24, 20, 12)
	for _, g := range []int{2, 3, 4} {
		opt := fastOptions(23)
		opt.GaneshRuns = g
		want, err := Learn(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 4, 5} {
			got, err := LearnParallel(p, d, opt)
			if err != nil {
				t.Fatalf("p=%d G=%d: %v", p, g, err)
			}
			if !result.Equal(got.Network, want.Network) {
				t.Fatalf("p=%d G=%d: network differs from sequential", p, g)
			}
		}
	}
}

func TestLearnRejectsOverflowSizedData(t *testing.T) {
	// A data set whose cell count exceeds the exact-statistics capacity
	// must be rejected up front, not corrupt Σx² silently — and from its
	// shape alone, before any cell is read: the header carries no cells.
	d := &dataset.Data{N: 1 << 13, M: 1 << 13} // 2^26 cells > 2^25
	if _, err := Learn(d, fastOptions(1)); err == nil || !strings.Contains(err.Error(), "exceeds the exact-statistics capacity") {
		t.Fatalf("oversized data set: got %v, want the capacity refusal", err)
	}
}

// TestCheckDataCapacityBound pins the capacity bound at MaxBlockCells ± 1
// cells: one cell past it is refused from the shape alone, and at or below
// it the shape passes and the cells are checked next (these headers carry
// no names or cells, so that check fails instead).
func TestCheckDataCapacityBound(t *testing.T) {
	for _, c := range []struct{ n, m int }{
		{31, 1082401}, // MaxBlockCells − 1
		{4096, 8192},  // MaxBlockCells
		{3, 11184811}, // MaxBlockCells + 1
	} {
		cells := c.n * c.m
		_, err := fit(&dataset.Data{N: c.n, M: c.m})
		refused := err != nil && strings.Contains(err.Error(), "exceeds the exact-statistics capacity")
		if want := cells > score.MaxBlockCells; refused != want || err == nil {
			t.Fatalf("%d×%d = MaxBlockCells%+d cells: fit = %v, want a capacity refusal %v",
				c.n, c.m, cells-score.MaxBlockCells, err, want)
		}
	}
}

// TestCheckRefusesBadCandidates: a candidate parent that is not a variable,
// or is listed twice, is refused by Check and by Learn with the entry named,
// before any world starts. The first used to panic inside every world the
// restart budget allowed (a slice bound), the second to learn another
// network than the list without the repeat, scoring the parent twice.
func TestCheckRefusesBadCandidates(t *testing.T) {
	d, _ := testData(t, 60, 30, 3)
	for _, c := range []struct {
		candidates []int
		named      string
	}{
		{[]int{99}, "Candidates[0] = 99"},
		{[]int{-1}, "Candidates[0] = -1"},
		{[]int{3, 3, 4}, "Candidates[1] = 3 repeats Candidates[0]"},
	} {
		opt := fastOptions(1)
		opt.MaxRestarts = 2
		opt.Module.Splits.Candidates = c.candidates
		out, learnErr := Learn(d, opt)
		for _, r := range []struct {
			name string
			err  error
		}{{"Check", Check(1, d, opt)}, {"Learn", learnErr}} {
			if r.err == nil || !strings.Contains(r.err.Error(), c.named) || strings.Contains(r.err.Error(), "panic") {
				t.Errorf("Candidates %v: %s = %v, want a refusal naming %q", c.candidates, r.name, r.err, c.named)
			}
		}
		if out != nil {
			t.Errorf("Candidates %v: Learn returned a network", c.candidates)
		}
	}
}

// TestCheckRefusesBadSamplerParams: a negative update count, a negative
// burn-in, or a burn-in of every update step is refused by Check with the
// field named. Each used to learn without an error: no update step (the
// random initial clustering), burn-in steps kept as trees, or modules
// without trees.
func TestCheckRefusesBadSamplerParams(t *testing.T) {
	d, _ := testData(t, 40, 30, 1)
	for _, c := range []struct {
		set   func(*Options)
		named string
	}{
		{func(o *Options) { o.Ganesh.Updates = -1 }, "Ganesh.Updates -1"},
		{func(o *Options) { o.Module.Tree.Updates = -1 }, "Module.Tree.Updates -1"},
		{func(o *Options) { o.Module.Tree.Burnin = -3 }, "Module.Tree.Burnin -3"},
		{func(o *Options) { o.Module.Tree = ganesh.ObsParams{Updates: 2, Burnin: 2} }, "Module.Tree.Burnin 2"},
		{func(o *Options) { o.Module.Tree = ganesh.ObsParams{Updates: 0, Burnin: 1} }, "Module.Tree.Burnin 1"},
	} {
		opt := fastOptions(1)
		c.set(&opt)
		if err := Check(1, d, opt); err == nil || !strings.Contains(err.Error(), c.named) {
			t.Errorf("Check = %v, want a refusal naming %q", err, c.named)
		}
	}
	for _, tree := range []ganesh.ObsParams{{}, {Updates: 1}, {Updates: 2, Burnin: 1}} {
		opt := fastOptions(1)
		opt.Module.Tree = tree
		if err := Check(1, d, opt); err != nil {
			t.Errorf("Module.Tree %+v: Check = %v, want nil", tree, err)
		}
	}
}

// overflowRows are finite rows whose moments overflow float64: the squared
// deviations of the first sum to +Inf (it used to standardize to all
// zeros), the second's sum itself overflows (it used to standardize to NaN).
var overflowRows = [][]float64{{1e300, -1e300, 3e299}, {1e308, 1e308, 0}}

// TestCheckRefusesOverflowingMoments: a variable whose mean or standard
// deviation is not finite is refused by Check and by Learn, with the
// variable named.
func TestCheckRefusesOverflowingMoments(t *testing.T) {
	for _, row := range overflowRows {
		d := dataset.New(3, 3)
		copy(d.Values, []float64{1, 2, 3, 3, 1, 2})
		copy(d.Values[6:], row)
		d.Names[2] = "overflow"
		opt := fastOptions(1)
		_, learnErr := Learn(d, opt)
		for _, c := range []struct {
			name string
			err  error
		}{{"Check", Check(1, d, opt)}, {"Learn", learnErr}} {
			if c.err == nil || !strings.Contains(c.err.Error(), `"overflow"`) {
				t.Errorf("%v: %s = %v, want a refusal naming the variable", row, c.name, c.err)
			}
		}
	}
}

// FuzzPrepare: a data set of any small shape, its cells cycling through four
// arbitrary floats (±Inf, NaN, ±10³⁰⁰, subnormals, values at the clipping
// bound and a grid step either side of it), is refused by Fit exactly when
// its shape is below 2×2, a cell is not finite, or a variable's mean or
// standard deviation is not. Otherwise Fit returns every cell within
// ±MaxAbsCell and bit-equal to score.QuantizeData of the
// dataset.Standardize'd copy; every standardized value is finite; Fit leaves
// the caller's cells as they were. The observation path maps every training
// column onto exactly its prepared cells, refuses a column of the wrong
// length or with a non-finite value, and refuses an observation repeating
// one float (one of the four, or a fifth arbitrary one) exactly when that
// float, or its standardized value in some variable, is not finite. Nothing
// panics. The seeds are the quantization envelope's pins
// (score.TestQuantizationEnvelope), the edges above and the overflowing rows,
// each observed at 10³⁰⁰, and the all-10³⁰⁰ observation against a variable
// of standard deviation 5·10⁻¹¹, whose standardized value overflows.
func FuzzPrepare(f *testing.F) {
	const step = 1.0 / score.ValueScale
	eps := math.Ldexp(1, -52)
	for _, v := range [][4]float64{
		{score.MaxAbsValue - step, score.MaxAbsValue, score.MaxAbsValue + step, -score.MaxAbsValue},
		{-score.MaxAbsValue + step, -score.MaxAbsValue - step, step, -step},
		{2 * step, step / 2, math.Nextafter(step/2, 1), -step / 2},
		{math.Nextafter(1.5*step, 0), 1.5 * step, 0, 1},
		{score.MaxAbsValue * (1 + eps), score.MaxAbsValue * (1 - eps), -score.MaxAbsValue * (1 + eps), -score.MaxAbsValue * (1 - eps)},
		{1e300, -1e300, 5e-324, -0x1p-1030},
		{math.Inf(1), 0, 0, 0},
		{0, math.Inf(-1), 0, 0},
		{0, 0, math.NaN(), 0},
	} {
		f.Add(uint8(3), uint8(4), v[0], v[1], v[2], v[3], 1e300)
		f.Add(uint8(2), uint8(2), v[0], v[1], v[2], v[3], 1e300)
	}
	for _, r := range overflowRows {
		f.Add(uint8(2), uint8(3), r[0], r[1], r[2], 0.0, 1e300)
	}
	f.Add(uint8(2), uint8(2), 1.0, 2.0, 0.0, 1e-10, 1e300)
	f.Add(uint8(1), uint8(5), 0.5, -0.5, 1.0, 2.0, 1e300)
	f.Add(uint8(5), uint8(1), 0.5, -0.5, 1.0, 2.0, 1e300)
	f.Add(uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0, 1e300)
	f.Fuzz(func(t *testing.T, nb, mb uint8, a, b, c, e, o float64) {
		d := dataset.New(int(nb%7), int(mb%7))
		vals := [4]float64{a, b, c, e}
		accept := d.N >= 2 && d.M >= 2
		for i := range d.Values {
			v := vals[i%4]
			if i/4%2 == 1 {
				v = -v
			}
			d.Values[i] = v
			accept = accept && finite(v)
		}
		mean, sd := d.Moments()
		for i := range mean {
			accept = accept && finite(mean[i]) && finite(sd[i])
		}
		raw := slices.Clone(d.Values)
		tr, q, err := Fit(d)
		if (err == nil) != accept {
			t.Fatalf("%d×%d, cells %v: Fit = %v, want a refusal %v", d.N, d.M, vals, err, !accept)
		}
		if err != nil {
			return
		}
		if q.N != d.N || q.M != d.M || len(q.Cells) != len(raw) || !slices.Equal(d.Values, raw) {
			t.Fatalf("%d×%d: Fit gave %d×%d with %d cells, or changed the caller's cells", d.N, d.M, q.N, q.M, len(q.Cells))
		}
		for i, cell := range q.Cells {
			if cell < -score.MaxAbsCell || cell > score.MaxAbsCell {
				t.Fatalf("cell %d (raw %v) quantized to %d, outside ±%d", i, raw[i], cell, int64(score.MaxAbsCell))
			}
			if v := tr.scale(i/d.M, raw[i]); !finite(v) {
				t.Fatalf("cell %d (raw %v) standardized to %v", i, raw[i], v)
			}
		}
		ref := d.Clone()
		ref.Standardize()
		if want := score.QuantizeData(ref); !slices.Equal(q.Cells, want.Cells) {
			t.Fatalf("%d×%d: Fit's cells %v, dataset.Standardize and score.QuantizeData give %v", d.N, d.M, q.Cells, want.Cells)
		}
		// recount counts the values of an observation whose standardized
		// value lies beyond the quantization bound.
		recount := func(obs []float64) int {
			n := 0
			for i, v := range obs {
				if z := dataset.Standardized(v, mean[i], sd[i]); z < -score.MaxAbsValue || z > score.MaxAbsValue {
					n++
				}
			}
			return n
		}
		col := make([]float64, d.N)
		for j := 0; j < d.M; j++ {
			for i := range col {
				col[i] = d.At(i, j)
			}
			obs, clipped, err := tr.Observation(col)
			if err != nil {
				t.Fatalf("training column %d refused: %v", j, err)
			}
			for i, v := range obs {
				if v != q.At(i, j) {
					t.Fatalf("column %d, variable %d: observation %d, prepared cell %d", j, i, v, q.At(i, j))
				}
			}
			if want := recount(col); clipped != want {
				t.Fatalf("column %d: %d values clipped, %d lie beyond ±%v", j, clipped, want, score.MaxAbsValue)
			}
		}
		if _, _, err := tr.Observation(col[1:]); err == nil {
			t.Fatalf("%d×%d: a %d-value observation was accepted", d.N, d.M, d.N-1)
		}
		col[d.N-1] = math.NaN()
		if _, _, err := tr.Observation(col); err == nil {
			t.Fatal("an observation with a NaN value was accepted")
		}
		for _, v := range append(vals[:], o) {
			ok := finite(v)
			for i := range col {
				col[i] = v
				ok = ok && finite(dataset.Standardized(v, mean[i], sd[i]))
			}
			_, clipped, err := tr.Observation(col)
			if (err == nil) != ok {
				t.Fatalf("%d×%d, moments %v, %v: observation of all %v = %v, want a refusal %v", d.N, d.M, mean, sd, v, err, !ok)
			}
			if want := recount(col); ok && clipped != want {
				t.Fatalf("observation of all %v: %d values clipped, %d lie beyond ±%v", v, clipped, want, score.MaxAbsValue)
			}
		}
	})
}

// TestCheckpointResume: interrupting after any task boundary and resuming
// from the checkpoints must learn exactly the uninterrupted network, and
// must skip the completed tasks.
func TestCheckpointResume(t *testing.T) {
	d, _ := testData(t, 24, 20, 14)
	opt := fastOptions(27)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt.CheckpointDir = dir
	first, err := Learn(d, opt) // writes both checkpoints
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(first.Network, want.Network) {
		t.Fatal("checkpointing changed the result")
	}
	resumed, err := Learn(d, opt) // resumes from the modules checkpoint
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(resumed.Network, want.Network) {
		t.Fatal("resumed network differs")
	}
	if resumed.Timers.Get(TaskGaneSH) != 0 || resumed.Timers.Get(TaskConsensus) != 0 {
		t.Fatal("resume did not skip completed tasks")
	}
}

func TestCheckpointPartialResume(t *testing.T) {
	d, _ := testData(t, 24, 20, 15)
	opt := fastOptions(29)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt.CheckpointDir = dir
	if _, err := Learn(d, opt); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between task 1 and task 2: keep only the GaneSH
	// checkpoint.
	if err := os.Remove(filepath.Join(dir, "modules.json")); err != nil {
		t.Fatal(err)
	}
	resumed, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(resumed.Network, want.Network) {
		t.Fatal("partial resume differs")
	}
	if resumed.Timers.Get(TaskGaneSH) != 0 {
		t.Fatal("partial resume re-ran GaneSH")
	}
}

// TestCheckpointLeftoverTmpIgnored: a stale .tmp file from a crashed save
// must neither break the run nor leak into the resumed state.
func TestCheckpointLeftoverTmpIgnored(t *testing.T) {
	d, _ := testData(t, 24, 20, 18)
	opt := fastOptions(35)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt.CheckpointDir = dir
	if err := os.WriteFile(filepath.Join(dir, "ensembles.json.tmp"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Learn(d, opt); err != nil {
		t.Fatalf("leftover .tmp broke the run: %v", err)
	}
	resumed, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(resumed.Network, want.Network) {
		t.Fatal("resume after leftover .tmp differs")
	}
}

// TestCheckpointCorruptRejected: a truncated/corrupt checkpoint must fail
// loudly instead of resuming from garbage.
func TestCheckpointCorruptRejected(t *testing.T) {
	d, _ := testData(t, 24, 20, 19)
	opt := fastOptions(37)
	dir := t.TempDir()
	opt.CheckpointDir = dir
	if err := os.WriteFile(filepath.Join(dir, "ensembles.json"), []byte(`{"seed":37,`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Learn(d, opt); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestCheckpointCreatesDir: a nested CheckpointDir that does not exist yet
// must be created by the first save.
func TestCheckpointCreatesDir(t *testing.T) {
	d, _ := testData(t, 24, 20, 21)
	opt := fastOptions(41)
	dir := filepath.Join(t.TempDir(), "nested", "ckpt")
	opt.CheckpointDir = dir
	if _, err := Learn(d, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "modules.json")); err != nil {
		t.Fatal("checkpoint not written into created directory")
	}
}

func TestWorkersValidation(t *testing.T) {
	d, _ := testData(t, 20, 16, 22)
	opt := fastOptions(1)
	opt.Workers = -1
	if _, err := Learn(d, opt); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

func TestCheckpointParallelWritesAndResumes(t *testing.T) {
	d, _ := testData(t, 24, 20, 17)
	opt := fastOptions(33)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt.CheckpointDir = dir
	if _, err := LearnParallel(3, d, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ensembles.json")); err != nil {
		t.Fatal("parallel run did not write checkpoints")
	}
	// Sequential resume from the parallel run's checkpoints: identical.
	resumed, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(resumed.Network, want.Network) {
		t.Fatal("cross-engine resume differs")
	}
}

// TestDefaultConsensusConvergesOnSweepCell: the smallest cell of the
// N × seed sweep that once failed with the default configuration —
// `datagen -n 200 -m 60 -seed 2`, learned with `-ganesh-runs 4 -updates 3`.
// Its third peeling round, on 86 variables, has two nearly equal leading
// eigenvalues: power iteration needed 5 417 steps there, above its former
// cap of 1 000. The Lanczos solver's longest round takes 12 matrix
// products, and the network is the one power iteration learned; the
// non-convergence error of the solver's own cap is consensus's
// TestClusterNonConvergenceSurfaced.
func TestDefaultConsensusConvergesOnSweepCell(t *testing.T) {
	d, _, err := synth.Generate(synth.Config{N: 200, M: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.GaneshRuns = 4
	opt.Ganesh.Updates = 3
	opt.Module.Splits.MaxSteps = 8
	opt.Events = true
	out, err := Learn(d, opt)
	if err != nil {
		t.Fatalf("default consensus cap: %v", err)
	}
	most := 0
	for _, ev := range out.Events {
		if ev.Consensus != nil {
			most = max(most, ev.Consensus.Iters)
		}
	}
	if most != 12 || len(out.Network.Modules) == 0 {
		t.Fatalf("longest round %d matrix products (want 12), %d modules", most, len(out.Network.Modules))
	}
}

// TestThresholdOneLearnsModules: a co-occurrence threshold of 1 keeps the
// pairs every run co-clusters, whatever G. At G = 6 the six additions of 1/6
// end one ulp below 1, and the learn used to return no module and no error,
// while G = 4 found modules on the same data.
func TestThresholdOneLearnsModules(t *testing.T) {
	d, _ := testData(t, 60, 24, 3)
	for _, g := range []int{4, 6} {
		opt := fastOptions(5)
		opt.GaneshRuns = g
		opt.CoOccurrenceThreshold = 1
		out, err := Learn(d, opt)
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		if len(out.Modules) == 0 {
			t.Fatalf("G=%d: threshold 1 learned no module", g)
		}
	}
}

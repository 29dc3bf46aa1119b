package ganesh

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parsimone/internal/cluster"
	"parsimone/internal/comm"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/synth"
	"parsimone/internal/trace"
)

func testData(t testing.TB, n, m int, seed uint64) *score.QData {
	t.Helper()
	d, _, err := synth.Generate(synth.Config{N: n, M: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d.Standardize()
	return score.QuantizeData(d)
}

// on is the run context of c's rank at W workers.
func on(c *comm.Comm, workers int) rank.Context { return rank.Context{Comm: c, Workers: workers} }

func TestRunProducesValidClustering(t *testing.T) {
	q := testData(t, 30, 20, 1)
	cc := Run(q, score.DefaultPrior(), Params{Updates: 2}, prng.New(7), nil)
	if err := cc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, vc := range cc.Clusters {
		covered += len(vc.Vars)
	}
	if covered != 30 {
		t.Fatalf("clusters cover %d of 30 variables", covered)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	q := testData(t, 25, 15, 2)
	a := Run(q, score.DefaultPrior(), Params{Updates: 1}, prng.New(3), nil)
	b := Run(q, score.DefaultPrior(), Params{Updates: 1}, prng.New(3), nil)
	if !reflect.DeepEqual(a.VarSnapshot(), b.VarSnapshot()) {
		t.Fatal("identical seeds produced different clusterings")
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	q := testData(t, 40, 20, 3)
	a := Run(q, score.DefaultPrior(), Params{Updates: 1}, prng.New(1), nil)
	b := Run(q, score.DefaultPrior(), Params{Updates: 1}, prng.New(2), nil)
	if reflect.DeepEqual(a.VarSnapshot(), b.VarSnapshot()) {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

// TestParallelMatchesSequential is the central §4.2 reproduction contract:
// for every processor count, the parallel run must produce exactly the
// clustering the sequential run produces.
func TestParallelMatchesSequential(t *testing.T) {
	q := testData(t, 24, 16, 4)
	pr := score.DefaultPrior()
	par := Params{Updates: 2}
	want := Run(q, pr, par, prng.New(11), nil).VarSnapshot()
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		snaps := make([][][]int, p)
		_, err := comm.Run(p, func(c *comm.Comm) error {
			cc := RunWithComm(on(c, 1), q, score.NewKernel(pr, q.N*q.M), par, prng.New(11))
			snaps[c.Rank()] = cc.VarSnapshot()
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for k := 0; k < p; k++ {
			if !reflect.DeepEqual(snaps[k], want) {
				t.Fatalf("p=%d rank %d clustering differs from sequential", p, k)
			}
		}
	}
}

// TestParallelObsClusteringsMatchSequential checks the same contract for the
// observation-only sampler used in module learning.
func TestParallelObsClusteringsMatchSequential(t *testing.T) {
	q := testData(t, 12, 20, 5)
	pr := score.DefaultPrior()
	vars := []int{1, 3, 5, 7, 9}
	par := ObsParams{Updates: 3, Burnin: 1}
	wantSamples, wantFinal := SampleObsClusterings(q, pr, vars, par, prng.New(21), nil)
	for _, p := range []int{1, 2, 5} {
		_, err := comm.Run(p, func(c *comm.Comm) error {
			samples, final := SampleObsClusteringsWithComm(on(c, 1), q, score.NewKernel(pr, q.N*q.M), vars, par, prng.New(21))
			if !reflect.DeepEqual(samples, wantSamples) {
				return fmt.Errorf("rank %d samples differ", c.Rank())
			}
			if !reflect.DeepEqual(final.Snapshot(), wantFinal.Snapshot()) {
				return fmt.Errorf("rank %d final partition differs", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestWorkersInvariance: the intra-rank worker pool must not change the
// sampled clustering — sequential and parallel runs with W workers are
// bit-identical to the serial W=1 run, and so are the obs-only samples.
func TestWorkersInvariance(t *testing.T) {
	q := testData(t, 24, 16, 6)
	pr := score.DefaultPrior()
	want := Run(q, pr, Params{Updates: 2}, prng.New(13), nil).VarSnapshot()
	vars := []int{0, 2, 4, 6, 8}
	wantSamples, _ := SampleObsClusterings(q, pr, vars, ObsParams{Updates: 2}, prng.New(19), nil)
	for _, workers := range []int{2, 4} {
		par := Params{Updates: 2}
		if got := RunWithComm(on(comm.Self(), workers), q, score.NewKernel(pr, q.N*q.M), par, prng.New(13)).VarSnapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("sequential W=%d clustering differs", workers)
		}
		_, err := comm.Run(3, func(c *comm.Comm) error {
			if got := RunWithComm(on(c, workers), q, score.NewKernel(pr, q.N*q.M), par, prng.New(13)).VarSnapshot(); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("rank %d W=%d clustering differs", c.Rank(), workers)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		samples, _ := SampleObsClusteringsWithComm(on(comm.Self(), workers), q, score.NewKernel(pr, q.N*q.M), vars, ObsParams{Updates: 2}, prng.New(19))
		if !reflect.DeepEqual(samples, wantSamples) {
			t.Fatalf("obs sampler W=%d samples differ", workers)
		}
	}
}

// straddleData is a fixture whose variable-reassignment decisions straddle
// the distribution constant: ~50 candidates of ~700 cost units each, so the
// total crosses it as the cluster count moves by one.
func straddleData(t testing.TB) *score.QData { return testData(t, 136, 400, 4) }

// tally notes every decision's total cost through the engine's beforeGains
// hook, and the branch the distribution rule gives it.
type tally struct {
	decisions, distributed             int64
	maxInline, minDistributed, maxItem float64
}

func (ta *tally) note(count int, cost func(int) float64) {
	var total float64
	for i := range count {
		total += cost(i)
		ta.maxItem = max(ta.maxItem, cost(i))
	}
	ta.decisions++
	if trace.Distributed(total) {
		ta.distributed++
		ta.minDistributed = min(ta.minDistributed, total)
	} else {
		ta.maxInline = max(ta.maxInline, total)
	}
}

// TestDistributionRuleInvariance: a decision is distributed exactly when its
// candidates cost the constant or more, and who evaluates a decision changes
// nothing (DESIGN §19). On a fixture whose decisions straddle the constant —
// the costliest replicated and the cheapest distributed decision are within
// one candidate of each other — every p×W ends on the sequential run's
// co-clustering and PRNG state, and each rank enters exactly one all-gather
// per decision at or above the constant, none for the rest — the
// collectives the work record charges. Under `make race` the W=2 legs are the pool workers reading the
// clustering state concurrently.
func TestDistributionRuleInvariance(t *testing.T) {
	q := straddleData(t)
	pr := score.DefaultPrior()
	par := Params{Updates: 1}
	state := func(cc *cluster.CoClustering, g *prng.MRG3) string {
		obs := make([][][]int, len(cc.Clusters))
		for i, vc := range cc.Clusters {
			obs[i] = vc.Snapshot()
		}
		s0, s1, s2 := g.State()
		return fmt.Sprint(cc.VarSnapshot(), obs, cc.Score(), s0, s1, s2)
	}
	wl := &trace.Workload{}
	g := prng.New(11)
	want := state(Run(q, pr, par, g, wl), g)

	g = prng.New(11)
	e := newEngine(on(comm.Self(), 2), q, score.NewKernel(pr, q.N*q.M), g)
	tally := &tally{minDistributed: math.Inf(1)}
	e.beforeGains = tally.note
	if got := state(e.run(par), g); got != want {
		t.Fatal("tallied run left Run's path")
	}
	decisions, distributed := tally.decisions, tally.distributed
	if distributed == 0 || distributed == decisions {
		t.Fatalf("%d of %d decisions distributed: the fixture does not straddle the constant", distributed, decisions)
	}
	var recorded int64
	for _, ph := range wl.Phases {
		recorded += ph.Collectives
	}
	if recorded != distributed {
		t.Fatalf("recording charges %d collectives for %d distributed decisions", recorded, distributed)
	}
	if tally.maxInline >= tally.minDistributed || tally.minDistributed-tally.maxInline > tally.maxItem {
		t.Fatalf("costliest replicated decision %v, cheapest distributed %v, costliest candidate %v: not within one candidate",
			tally.maxInline, tally.minDistributed, tally.maxItem)
	}

	for _, p := range []int{1, 2, 3} {
		for _, workers := range []int{1, 2} {
			got := make([]string, p)
			stats, err := comm.Run(p, func(c *comm.Comm) error {
				g := prng.New(11)
				got[c.Rank()] = state(RunWithComm(on(c, workers), q, score.NewKernel(pr, q.N*q.M), par, g), g)
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d W=%d: %v", p, workers, err)
			}
			// Every distributed decision is the one all-gather the work
			// record charges for it. One goroutine has nothing to distribute
			// over and sums no costs.
			wantCollectives := recorded
			if p*workers == 1 {
				wantCollectives = 0
			}
			for k := 0; k < p; k++ {
				if got[k] != want {
					t.Fatalf("p=%d W=%d rank %d: co-clustering or PRNG state differs from sequential", p, workers, k)
				}
				if stats[k].Collectives != wantCollectives {
					t.Fatalf("p=%d W=%d rank %d: %d collectives, want %d for %d distributed decisions of %d",
						p, workers, k, stats[k].Collectives, wantCollectives, distributed, decisions)
				}
			}
		}
	}
}

// checkedBy returns a beforeGains hook verifying the clustering state's
// invariants. A decision sits between every two mutations of a sweep
// (detach → decide → attach, decide → merge), so together with a final check
// this sees the state after every mutation.
func checkedBy(t *testing.T, check func() error) func(int, func(int) float64) {
	return func(int, func(int) float64) {
		if err := check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoredBlockScoresExactThroughSampling: every block score the sampler's
// gains subtract is bit-equal to a fresh evaluation of the block's statistics
// after every mutation (cluster.CheckInvariants), serially and with two
// workers reading the state concurrently (under `make race`), for the full
// sampler and the pinned-module one — whose kernel, sized to the module,
// never falls back to the prior. The checked runs are the real ones: they
// end on the clusterings Run and SampleObsClusterings return.
func TestStoredBlockScoresExactThroughSampling(t *testing.T) {
	q := testData(t, 24, 16, 6)
	pr := score.DefaultPrior()
	vars := []int{0, 2, 4, 6, 8}
	want := Run(q, pr, Params{Updates: 2}, prng.New(13), nil).VarSnapshot()
	_, wantObs := SampleObsClusterings(q, pr, vars, ObsParams{Updates: 2}, prng.New(19), nil)
	for _, workers := range []int{1, 2} {
		e := newEngine(on(comm.Self(), workers), q, score.NewKernel(pr, q.N*q.M), prng.New(13))
		par := Params{Updates: 2}
		cc := cluster.NewRandomCoClustering(q, e.kern, initVarClusters(q.N), initObsClusters(q.M), e.g)
		e.beforeGains = checkedBy(t, cc.CheckInvariants)
		for u := 0; u < par.Updates; u++ {
			e.step(cc)
		}
		if err := cc.CheckInvariants(); err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		if got := cc.VarSnapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("W=%d: checked run left Run's path", workers)
		}

		e = newEngine(on(comm.Self(), workers), q, score.NewKernel(pr, len(vars)*q.M), prng.New(19))
		opar := ObsParams{Updates: 2}
		oc := cluster.NewRandomObsClusters(q, e.kern, vars, initObsClusters(q.M), e.g)
		e.beforeGains = checkedBy(t, oc.CheckInvariants)
		for u := 0; u < opar.Updates; u++ {
			e.reassignObs(oc)
			e.mergeObs(oc)
		}
		if err := oc.CheckInvariants(); err != nil {
			t.Fatalf("W=%d pinned: %v", workers, err)
		}
		if got := oc.Snapshot(); !reflect.DeepEqual(got, wantObs.Snapshot()) {
			t.Fatalf("W=%d: checked pinned run left SampleObsClusterings' path", workers)
		}
		// A block of the pinned run spans at most len(vars)·M cells.
		if e.kern.TableLen() != len(vars)*q.M+1 {
			t.Fatalf("W=%d: pinned kernel has %d entries, want %d", workers, e.kern.TableLen(), len(vars)*q.M+1)
		}
	}
}

// TestGibbsImprovesScore: the sampler should, on structured data, end far
// above the score of its random initialization.
func TestGibbsImprovesScore(t *testing.T) {
	q := testData(t, 40, 30, 6)
	pr := score.DefaultPrior()
	// Reconstruct the exact random initialization the run starts from.
	par := Params{Updates: 3}
	init := cluster.NewRandomCoClustering(q, score.NewKernel(pr, q.N*q.M), initVarClusters(q.N), initObsClusters(q.M), prng.New(9))
	final := Run(q, pr, par, prng.New(9), nil)
	if final.Score() <= init.Score() {
		t.Fatalf("sampling did not improve the score: init %v, final %v",
			init.Score(), final.Score())
	}
}

// TestGibbsRecoversStructure: with low noise and few strong modules, the
// sampler must group same-module variables together far better than chance.
func TestGibbsRecoversStructure(t *testing.T) {
	d, truth, err := synth.Generate(synth.Config{
		N: 40, M: 60, Regulators: 4, Modules: 3, Noise: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Standardize()
	q := score.QuantizeData(d)
	cc := Run(q, score.DefaultPrior(), Params{Updates: 4}, prng.New(5), nil)
	// Count pair agreement over member genes (exclude regulators).
	assign := cc.VarAssignment()
	var agree, total int
	for i := 4; i < q.N; i++ {
		for j := i + 1; j < q.N; j++ {
			sameTruth := truth.ModuleOf[i] == truth.ModuleOf[j]
			sameLearned := assign[i] == assign[j]
			if sameTruth == sameLearned {
				agree++
			}
			total++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.75 {
		t.Fatalf("pair agreement %.2f below 0.75", frac)
	}
}

// TestWorkloadRecorded: the recording mirrors the distribution rule. Every
// decision of a small run is below the constant, so its cost is replicated
// work: SerialCost, with no items, collectives or words for the model to
// charge.
func TestWorkloadRecorded(t *testing.T) {
	q := testData(t, 20, 12, 8)
	wl := &trace.Workload{}
	Run(q, score.DefaultPrior(), Params{Updates: 1}, prng.New(2), wl)
	for _, name := range []string{PhaseVarReassign, PhaseVarMerge, PhaseObsReassign, PhaseObsMerge} {
		ph := wl.Phase(name)
		if ph == nil {
			t.Fatalf("phase %s not recorded", name)
		}
		if len(ph.Items) != 0 || ph.Collectives != 0 || ph.Words != 0 {
			t.Fatalf("phase %s: %d items, %d collectives, %d words recorded for replicated decisions",
				name, len(ph.Items), ph.Collectives, ph.Words)
		}
		if ph.SerialCost <= 0 {
			t.Fatalf("phase %s has no serial cost", name)
		}
		if !ph.PerSegmentBarrier {
			t.Fatalf("phase %s must be per-segment", name)
		}
	}
	if wl.TotalCost() <= 0 {
		t.Fatal("no cost recorded")
	}
}

func TestWorkloadRecordingDoesNotChangeResult(t *testing.T) {
	q := testData(t, 20, 12, 9)
	wl := &trace.Workload{}
	a := Run(q, score.DefaultPrior(), Params{Updates: 1}, prng.New(4), wl)
	b := Run(q, score.DefaultPrior(), Params{Updates: 1}, prng.New(4), nil)
	if !reflect.DeepEqual(a.VarSnapshot(), b.VarSnapshot()) {
		t.Fatal("recording changed the result")
	}
}

func TestParamsDefaults(t *testing.T) {
	if k0 := initVarClusters(100); k0 != 50 {
		t.Fatalf("K0 = %d, want 50", k0)
	}
	if k0 := initVarClusters(1); k0 != 1 {
		t.Fatalf("K0 over one variable = %d, want 1", k0)
	}
	for m, want := range map[int]int{49: 7, 50: 8, 100: 10, 1: 1} {
		if l0 := initObsClusters(m); l0 != want {
			t.Fatalf("L0 over %d observations = %d, want %d", m, l0, want)
		}
	}
	if p := (Params{}).withDefaults(); p.Updates != 1 {
		t.Fatalf("U = %d, want 1", p.Updates)
	}
	if op := (ObsParams{}).withDefaults(); op.Updates != 1 {
		t.Fatalf("obs defaults: %+v", op)
	}
}

func TestSampleObsClusteringsBurnin(t *testing.T) {
	q := testData(t, 10, 16, 10)
	samples, final := SampleObsClusterings(q, score.DefaultPrior(), []int{0, 1, 2},
		ObsParams{Updates: 5, Burnin: 2}, prng.New(6), nil)
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3 (5 updates − 2 burn-in)", len(samples))
	}
	if err := final.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for si, snap := range samples {
		covered := 0
		for _, cl := range snap {
			covered += len(cl)
		}
		if covered != 16 {
			t.Fatalf("sample %d covers %d of 16 observations", si, covered)
		}
	}
}

func TestCoOccurrenceBasic(t *testing.T) {
	// Two snapshots over 4 variables: {0,1},{2,3} and {0,1,2},{3}.
	ens := [][][]int{
		{{0, 1}, {2, 3}},
		{{0, 1, 2}, {3}},
	}
	a := CoOccurrence(4, ens, 0)
	if a[0*4+1] != 1 {
		t.Fatalf("A(0,1) = %v, want 1", a[0*4+1])
	}
	if a[1*4+2] != 0.5 {
		t.Fatalf("A(1,2) = %v, want 0.5", a[1*4+2])
	}
	if a[0*4+3] != 0 {
		t.Fatalf("A(0,3) = %v, want 0", a[0*4+3])
	}
	// Symmetry and unit diagonal.
	for i := 0; i < 4; i++ {
		if a[i*4+i] != 1 {
			t.Fatalf("diagonal (%d) = %v", i, a[i*4+i])
		}
		for j := 0; j < 4; j++ {
			if a[i*4+j] != a[j*4+i] {
				t.Fatal("co-occurrence not symmetric")
			}
		}
	}
}

func TestCoOccurrenceThreshold(t *testing.T) {
	ens := [][][]int{
		{{0, 1}, {2}},
		{{0}, {1}, {2}},
	}
	a := CoOccurrence(3, ens, 0.6)
	if a[0*3+1] != 0 {
		t.Fatalf("A(0,1) = %v, want 0 after threshold", a[0*3+1])
	}
	if a[0] != 1 {
		t.Fatal("diagonal lost")
	}
}

// TestCoOccurrenceThresholdExact: a surviving entry holds the bits of count
// additions of 1/G, and it survives iff that sum reaches the threshold —
// except that a pair every run co-clusters has frequency 1, exactly. For
// G = 6 and 10 the G additions end one ulp below 1, so a threshold of 1
// used to zero the whole matrix, the diagonal included.
func TestCoOccurrenceThresholdExact(t *testing.T) {
	const n = 5
	for _, g := range []int{3, 6, 10} {
		// Snapshot s joins variable v to 0's cluster for the first v·G/4
		// snapshots, so the pairs (0, v) co-occur 0, G/4, G/2, 3G/4 and G
		// times (rounded down); variable 4 always shares 0's cluster.
		ens := make([][][]int, g)
		for s := range ens {
			joined, alone := []int{0}, [][]int{}
			for v := 1; v < n; v++ {
				if s < v*g/4 {
					joined = append(joined, v)
				} else {
					alone = append(alone, []int{v})
				}
			}
			ens[s] = append([][]int{joined}, alone...)
		}
		for _, threshold := range []float64{0.5, 1} {
			a := CoOccurrence(n, ens, threshold)
			for v := 0; v < n; v++ {
				count := g
				if v > 0 {
					count = v * g / 4
				}
				var sum float64
				for range count {
					sum += 1 / float64(g)
				}
				var want float64
				if float64(count)/float64(g) >= threshold {
					want = sum
				}
				if got := a[v]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("G=%d threshold %v: A(0,%d) (count %d) = %v, want %v", g, threshold, v, count, got, want)
				}
			}
			for i := 0; i < n; i++ {
				if a[i*n+i] == 0 {
					t.Errorf("G=%d threshold %v: diagonal entry %d zeroed", g, threshold, i)
				}
			}
		}
	}
}

// TestCoOccurrenceKeepsExactThresholdFrequency: a pair co-clustered in 9 of
// G = 10 runs has frequency exactly 0.9, so a threshold of 0.9 keeps it,
// holding v[9] — although nine additions of 0.1 give 0.8999999999999999.
func TestCoOccurrenceKeepsExactThresholdFrequency(t *testing.T) {
	const g = 10
	ens := make([][][]int, g)
	for s := range ens {
		if s < 9 {
			ens[s] = [][]int{{0, 1}}
		} else {
			ens[s] = [][]int{{0}, {1}}
		}
	}
	var v9 float64
	for range 9 {
		v9 += 1.0 / g
	}
	if got := CoOccurrence(2, ens, 0.9)[1]; math.Float64bits(got) != math.Float64bits(v9) {
		t.Fatalf("A(0,1) at count 9 of 10, threshold 0.9 = %v, want %v (kept)", got, v9)
	}
}

func TestCoOccurrenceEmptyEnsemble(t *testing.T) {
	a := CoOccurrence(3, nil, 0)
	for _, v := range a {
		if v != 0 {
			t.Fatal("empty ensemble must give zero matrix")
		}
	}
}

func BenchmarkRunSequential(b *testing.B) {
	q := testData(b, 60, 40, 1)
	pr := score.DefaultPrior()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(q, pr, Params{Updates: 1}, prng.New(uint64(i)), nil)
	}
}

// BenchmarkRun480x32 is one GaneSH run at the benchmark's `cluster` shape
// (two update steps): allocs/op counts the per-decision scratch.
func BenchmarkRun480x32(b *testing.B) {
	q := testData(b, 480, 32, 1)
	pr := score.DefaultPrior()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(q, pr, Params{Updates: 2}, prng.New(uint64(i)), nil)
	}
}

// BenchmarkRun32x2577 is one GaneSH run (two update steps) on 32
// variables over yeast's observation count, where the observation sweeps'
// moves and merges, and the layout they keep, weigh most.
func BenchmarkRun32x2577(b *testing.B) {
	q := testData(b, 32, 2577, 1)
	pr := score.DefaultPrior()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(q, pr, Params{Updates: 2}, prng.New(uint64(i)), nil)
	}
}

// BenchmarkSampleObs32x2577 is the module sampler (two update steps) over
// the first 2, 8 and 32 variables of a 32 × 2577 data set, scored through
// one kernel built ahead, as a rank's is.
func BenchmarkSampleObs32x2577(b *testing.B) {
	q := testData(b, 32, 2577, 1)
	kern := score.NewKernel(score.DefaultPrior(), q.N*q.M)
	for _, nv := range []int{2, 8, 32} {
		vars := make([]int, nv)
		for x := range vars {
			vars[x] = x
		}
		b.Run(fmt.Sprintf("vars=%d", nv), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SampleObsClusteringsWithComm(rank.Self(nil), q, kern, vars, ObsParams{Updates: 2}, prng.New(uint64(i)))
			}
		})
	}
}

func BenchmarkRunParallelP4(b *testing.B) {
	q := testData(b, 60, 40, 1)
	pr := score.DefaultPrior()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm.Run(4, func(c *comm.Comm) error {
			RunWithComm(on(c, 1), q, score.NewKernel(pr, q.N*q.M), Params{Updates: 1}, prng.New(uint64(i)))
			return nil
		})
	}
}

// TestCoOccurrenceProperties: symmetric, unit diagonal for covered
// variables, all entries within [0,1] — for arbitrary ensembles.
func TestCoOccurrenceProperties(t *testing.T) {
	check := func(raw []uint8) bool {
		const n = 6
		// Build 1-3 random partitions of 0..n-1 from the raw bytes.
		var ens [][][]int
		idx := 0
		take := func() int {
			if idx >= len(raw) {
				return 0
			}
			v := int(raw[idx])
			idx++
			return v
		}
		for s := 0; s < take()%3+1; s++ {
			clusters := map[int][]int{}
			for x := 0; x < n; x++ {
				c := take() % 3
				clusters[c] = append(clusters[c], x)
			}
			var snap [][]int
			for c := 0; c < 3; c++ {
				if len(clusters[c]) > 0 {
					snap = append(snap, clusters[c])
				}
			}
			ens = append(ens, snap)
		}
		a := CoOccurrence(n, ens, 0)
		for i := 0; i < n; i++ {
			if a[i*n+i] < 0.999 {
				return false // every variable co-occurs with itself in every sample
			}
			for j := 0; j < n; j++ {
				if a[i*n+j] != a[j*n+i] || a[i*n+j] < 0 || a[i*n+j] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

package consensus

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"parsimone/internal/comm"
	"parsimone/internal/ganesh"
	"parsimone/internal/matrix"
	"parsimone/internal/obs"
	"parsimone/internal/prng"
	"parsimone/internal/quickseed"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/synth"
)

// recording is the one-rank run context whose events go to rec.
func recording(rec *obs.Recorder) rank.Context {
	return rank.Context{Comm: comm.Self(), Hooks: obs.NewHooks(rec, nil, nil)}
}

// mustCluster fails the test on any Cluster error.
func mustCluster(t *testing.T, n int, a []float64, par Params) [][]int {
	t.Helper()
	got, err := Cluster(n, a, par)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// peelWith runs the one-rank peeling with the default cut-offs as set
// changes them, failing the test on any error.
func peelWith(t *testing.T, n int, a []float64, set func(*peeling)) [][]int {
	t.Helper()
	pl := defaultPeeling
	set(&pl)
	got, err := peel(rank.Self(nil), csr(t, n, a), pl)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// csr converts a dense test matrix, failing the test on any error.
func csr(t testing.TB, n int, a []float64) *matrix.CSR {
	t.Helper()
	s, err := matrix.FromDense(n, a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// block builds a co-occurrence matrix with perfect blocks.
func block(n int, groups [][]int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	for _, g := range groups {
		for _, i := range g {
			for _, j := range g {
				a[i*n+j] = 1
			}
		}
	}
	return a
}

func TestClusterPerfectBlocks(t *testing.T) {
	a := block(7, [][]int{{0, 1, 2, 3}, {4, 5, 6}})
	got := mustCluster(t, 7, a, Params{})
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestClusterExtractsDensestFirst(t *testing.T) {
	// The larger clique has the larger Perron value and must come first
	// even when its indices come later.
	a := block(9, [][]int{{0, 1}, {2, 3, 4, 5, 6}})
	got := mustCluster(t, 9, a, Params{})
	if len(got) < 2 {
		t.Fatalf("got %v", got)
	}
	if !reflect.DeepEqual(got[0], []int{2, 3, 4, 5, 6}) {
		t.Fatalf("densest cluster not first: %v", got)
	}
}

func TestClusterNoisyBlocks(t *testing.T) {
	// Strong blocks plus weak off-block noise must still be recovered.
	// The blocks have slightly different strength so the Perron vector
	// localizes (exactly symmetric blocks are a degenerate tie).
	n := 8
	a := block(n, [][]int{{0, 1, 2}})
	for _, i := range []int{3, 4, 5} {
		for _, j := range []int{3, 4, 5} {
			if i != j {
				a[i*n+j] = 0.8
			}
		}
	}
	// Residual off-block noise: small, as after the co-occurrence
	// threshold of §2.2.2 (that threshold exists precisely to remove
	// strong spurious coupling).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && a[i*n+j] == 0 {
				a[i*n+j] = 0.05
			}
		}
	}
	got := mustCluster(t, n, a, Params{})
	if len(got) < 2 {
		t.Fatalf("got %v", got)
	}
	if !reflect.DeepEqual(got[0], []int{0, 1, 2}) && !reflect.DeepEqual(got[0], []int{3, 4, 5}) {
		t.Fatalf("first cluster %v not a true block", got[0])
	}
}

func TestClusterEmptyMatrix(t *testing.T) {
	a := make([]float64, 16) // all zero — no co-occurrence at all
	got := mustCluster(t, 4, a, Params{})
	if len(got) != 0 {
		t.Fatalf("zero matrix produced clusters: %v", got)
	}
}

func TestClusterSingletonsNotEmitted(t *testing.T) {
	// Identity matrix: every variable only co-occurs with itself; with
	// MinClusterSize 2 nothing is a module.
	n := 5
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	got := mustCluster(t, n, a, Params{})
	if len(got) != 0 {
		t.Fatalf("identity matrix produced clusters: %v", got)
	}
}

func TestClusterMinSizeRespected(t *testing.T) {
	a := block(6, [][]int{{0, 1, 2, 3}, {4, 5}})
	got := peelWith(t, 6, a, func(pl *peeling) { pl.minClusterSize = 3 })
	for _, c := range got {
		if len(c) < 3 {
			t.Fatalf("cluster %v below min size", c)
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	a := block(10, [][]int{{0, 3, 5}, {1, 2, 8}, {4, 6, 7, 9}})
	x := mustCluster(t, 10, a, Params{})
	y := mustCluster(t, 10, a, Params{})
	if !reflect.DeepEqual(x, y) {
		t.Fatal("consensus clustering not deterministic")
	}
}

func TestClusterErrorsOnAsymmetric(t *testing.T) {
	a := make([]float64, 4)
	a[1] = 0.5 // (0,1) without (1,0)
	if _, err := Cluster(2, a, Params{}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

// TestClusterErrorsOnOutOfEnvelopeCells: a NaN on the diagonal used to pass
// validation (the symmetry scan skipped the diagonal, and NaN != NaN hid a
// mirrored pair) and poison every Perron vector silently; so did an infinite
// or negative cell with its mirror.
func TestClusterErrorsOnOutOfEnvelopeCells(t *testing.T) {
	for name, set := range map[string]func(a []float64){
		"diagonal NaN":      func(a []float64) { a[1*4+1] = math.NaN() },
		"off-diagonal +Inf": func(a []float64) { a[0*4+2], a[2*4+0] = math.Inf(1), math.Inf(1) },
		"negative cell":     func(a []float64) { a[1*4+3], a[3*4+1] = -0.5, -0.5 },
	} {
		a := block(4, [][]int{{0, 1}, {2, 3}})
		set(a)
		if got, err := Cluster(4, a, Params{}); err == nil || !strings.Contains(err.Error(), "finite non-negative") {
			t.Errorf("%s accepted: clusters %v, err %v", name, got, err)
		}
	}
}

func TestClusterErrorsOnWrongSize(t *testing.T) {
	if _, err := Cluster(3, make([]float64, 4), Params{}); err == nil {
		t.Fatal("wrong-size matrix accepted")
	}
}

func TestClusterNonConvergenceSurfaced(t *testing.T) {
	// A matrix whose dominant eigenvector needs more than one product,
	// under a cap of 1: the clustering must fail with an error plus an
	// event, never peel a cluster from the unconverged pair.
	a := block(8, [][]int{{0, 1, 2}, {3, 4, 5}})
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && a[i*8+j] == 0 {
				a[i*8+j] = 0.05
			}
		}
	}
	rec := obs.NewRecorder(0)
	pl := defaultPeeling
	pl.maxProducts = 1
	_, err := peel(recording(rec), csr(t, 8, a), pl)
	if err == nil || !strings.Contains(err.Error(), "did not converge within 1 matrix products on 8 remaining variables") {
		t.Fatalf("non-convergence not surfaced: %v", err)
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no events emitted")
	}
	last := evs[len(evs)-1]
	if last.Type != obs.TypeConsensus || last.Consensus.Converged || last.Consensus.Iters != 1 || !(last.Consensus.Residual > 0) {
		t.Fatalf("last event should record the unconverged product and its residual estimate: %+v", last.Consensus)
	}
	if err := obs.Validate(evs); err != nil {
		t.Fatal(err)
	}
}

func TestClusterEmitsExtractionEvents(t *testing.T) {
	a := block(7, [][]int{{0, 1, 2, 3}, {4, 5, 6}})
	rec := obs.NewRecorder(0)
	got, err := ClusterWithComm(recording(rec), csr(t, 7, a))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want one per peeling step: %+v", len(evs), evs)
	}
	if evs[0].Consensus.Extracted != 4 || evs[1].Consensus.Extracted != 3 {
		t.Fatalf("extraction sizes wrong: %+v", evs)
	}
	for _, ev := range evs {
		if !ev.Consensus.Converged || ev.Consensus.Iters <= 0 || ev.Consensus.Eigenvalue <= 0 || ev.Consensus.Residual != 0 {
			t.Fatalf("bad extraction event: %+v", ev)
		}
	}
	// Hooks never change the clusters themselves.
	if bare := mustCluster(t, 7, a, Params{}); !reflect.DeepEqual(bare, got) {
		t.Fatalf("hooks changed the result: %v vs %v", bare, got)
	}
}

// TestClusterWithCommSingleSourced: on a p=2 world both ranks run the
// replicated task to the same clusters and poll one cancellation check per
// peeling round, but only rank 0 emits the rounds' consensus.extract events —
// each exactly once in the world.
func TestClusterWithCommSingleSourced(t *testing.T) {
	a := block(7, [][]int{{0, 1, 2, 3}, {4, 5, 6}})
	want := mustCluster(t, 7, a, Params{})
	const p = 2
	recs := [p]*obs.Recorder{obs.NewRecorder(0), obs.NewRecorder(1)}
	var checks [p]int64
	_, err := comm.Run(p, func(c *comm.Comm) error {
		rc := recording(recs[c.Rank()])
		rc.Comm, rc.Cancel = c, comm.NewCanceler(nil, nil)
		got, err := ClusterWithComm(rc, csr(t, 7, a))
		if err == nil && !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("rank %d: clusters %v, want %v", c.Rank(), got, want)
		}
		checks[c.Rank()] = rc.Cancel.Checks()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := len(recs[0].Events())
	if rounds != len(want) || len(recs[1].Events()) != 0 {
		t.Fatalf("rank 0 emitted %d events and rank 1 %d; want %d (one per extracted cluster) and 0",
			rounds, len(recs[1].Events()), len(want))
	}
	if checks[0] != int64(rounds) || checks[1] != checks[0] {
		t.Fatalf("cancel checks per rank %v, want %d on both (one per peeling round)", checks, rounds)
	}
}

// TestEndToEndWithGaneSH drives the real pipeline front half: sample
// clusterings with GaneSH, accumulate co-occurrence, extract consensus
// modules, and check they reflect the synthetic ground truth.
func TestEndToEndWithGaneSH(t *testing.T) {
	d, truth, err := synth.Generate(synth.Config{
		N: 36, M: 40, Regulators: 4, Modules: 3, Noise: 0.25, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Standardize()
	q := score.QuantizeData(d)
	pr := score.DefaultPrior()
	var ensembles [][][]int
	for gRun := 0; gRun < 3; gRun++ {
		cc := ganesh.Run(q, pr, ganesh.Params{Updates: 2}, prng.New(uint64(100+gRun)), nil)
		ensembles = append(ensembles, cc.VarSnapshot())
	}
	a := ganesh.CoOccurrence(q.N, ensembles, 0.35)
	modules := mustCluster(t, q.N, a, Params{})
	if len(modules) == 0 {
		t.Fatal("no consensus modules found")
	}
	// Most pairs inside a consensus module should share a true module.
	var same, total int
	for _, mod := range modules {
		for ai := 0; ai < len(mod); ai++ {
			for bi := ai + 1; bi < len(mod); bi++ {
				i, j := mod[ai], mod[bi]
				if truth.ModuleOf[i] >= 0 && truth.ModuleOf[i] == truth.ModuleOf[j] {
					same++
				}
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("modules are all singletons")
	}
	if frac := float64(same) / float64(total); frac < 0.6 {
		t.Fatalf("consensus module purity %.2f below 0.6 (modules %v)", frac, modules)
	}
}

// TestParamsWithDefaults: Params has no field, and every clustering peels
// with the package's cut-offs and product cap.
func TestParamsWithDefaults(t *testing.T) {
	if n := reflect.TypeOf(Params{}).NumField(); n != 0 {
		t.Fatalf("Params has %d fields, want none", n)
	}
	want := peeling{minClusterSize: 2, minEigenvalue: 1.0, supportFrac: 0.5, tol: 1e-10, maxProducts: 20000}
	if defaultPeeling != want {
		t.Fatalf("got %+v, want %+v", defaultPeeling, want)
	}
}

// TestBlockConstantPeelsInFewProducts: on a matrix of disjoint cliques the
// uniform start vector is a sum of one eigenvector per distinct block
// eigenvalue, so the Lanczos solver spans it in as many products as the
// remaining blocks have distinct sizes, and one more product confirms the
// pair. Every round must stay within that bound and peel the largest
// remaining block, with isolated variables left out.
func TestBlockConstantPeelsInFewProducts(t *testing.T) {
	groups := [][]int{{0, 5, 9, 14, 20}, {1, 2, 3, 4}, {6, 7, 8, 10}, {11, 12, 13}, {15, 16}, {17, 18, 19, 21}}
	const n = 24 // 22 and 23 are isolated
	rec := obs.NewRecorder(0)
	got, err := ClusterWithComm(recording(rec), csr(t, n, block(n, groups)))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 5, 9, 14, 20}, {1, 2, 3, 4}, {6, 7, 8, 10}, {17, 18, 19, 21}, {11, 12, 13}, {15, 16}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clusters %v, want %v", got, want)
	}
	remaining := append([][]int{}, want...)
	remaining = append(remaining, []int{22}, []int{23})
	for r, ev := range rec.Events() {
		sizes := map[int]bool{}
		for _, g := range remaining[r:] {
			sizes[len(g)] = true
		}
		if ev.Consensus.Iters > len(sizes)+1 {
			t.Errorf("round %d: %d products, want at most %d (distinct block sizes %d + 1)", r, ev.Consensus.Iters, len(sizes)+1, len(sizes))
		}
	}
}

// TestClusterNegativeMinEigenvalueDisablesStop: the eigenvalue cut-off is
// what stops the peeling of weak blocks; below zero it never stops it, and
// peeling continues until an extraction comes up short.
func TestClusterNegativeMinEigenvalueDisablesStop(t *testing.T) {
	// Two weak blocks whose dominant eigenvalues sit below the default
	// cutoff of 1.0 once the diagonal is down-weighted.
	n := 4
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 0.3
	}
	a[0*n+1], a[1*n+0] = 0.3, 0.3
	a[2*n+3], a[3*n+2] = 0.3, 0.3
	if got := mustCluster(t, n, a, Params{}); len(got) != 0 {
		t.Fatalf("default cutoff should reject weak blocks, got %v", got)
	}
	got := peelWith(t, n, a, func(pl *peeling) { pl.minEigenvalue = -1 })
	if len(got) == 0 {
		t.Fatal("disabled eigenvalue stop still rejected every cluster")
	}
}

// TestSupportIsTheFullSortsHead: the support-only sort returns the prefix
// that a sort of every entry (value descending, index ascending) has before
// its first entry that is not positive or lies below supportFrac times the
// largest — entries exactly at the cut included. Values come from a small
// set, so ties, exact cuts, zeros and negatives are common.
func TestSupportIsTheFullSortsHead(t *testing.T) {
	vals := []float64{-0.25, 0, 0.125, 0.25, 0.5, 0.75, 1}
	check := func(raw []uint8, frac uint8) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, r := range raw {
			v[i] = vals[int(r)%len(vals)]
		}
		supportFrac := []float64{0, 0.25, 0.5, 1}[frac%4]
		all := make([]int, len(v))
		for i := range all {
			all[i] = i
		}
		sort.SliceStable(all, func(a, b int) bool { return v[all[a]] > v[all[b]] })
		k := 0
		for k < len(all) && v[all[k]] > 0 && v[all[k]] >= supportFrac*v[all[0]] {
			k++
		}
		got := support(v, supportFrac, make([]int, len(v)))
		if !reflect.DeepEqual(got, all[:k]) && !(k == 0 && len(got) == 0) {
			t.Errorf("v %v, frac %v: support %v, full sort's head %v", v, supportFrac, got, all[:k])
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

package cluster

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"parsimone/internal/prng"
	"parsimone/internal/quickseed"
	"parsimone/internal/score"
	"parsimone/internal/synth"
)

// approxEqual compares score sums, which may differ in the last bits because
// floating-point summation order varies between the gain formula and the
// full-score recomputation (the sufficient statistics themselves are exact).
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func testData(t testing.TB, n, m int, seed uint64) *score.QData {
	t.Helper()
	d, _, err := synth.Generate(synth.Config{N: n, M: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d.Standardize()
	return score.QuantizeData(d)
}

// testKernel is the scoring kernel of the default prior for every block of
// q, as a rank builds it.
func testKernel(q *score.QData) *score.Kernel {
	return score.NewKernel(score.DefaultPrior(), q.N*q.M)
}

func TestNewRandomObsClusters(t *testing.T) {
	q := testData(t, 10, 20, 1)
	g := prng.New(1)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0, 1, 2}, 4, g)
	if err := oc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for ci := range oc.Clusters {
		total += len(oc.Obs(ci))
	}
	if total != 20 {
		t.Fatalf("clusters cover %d of 20 observations", total)
	}
}

func TestNewRandomObsClustersClampsCount(t *testing.T) {
	q := testData(t, 10, 5, 2)
	g := prng.New(2)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0}, 100, g)
	if len(oc.Clusters) > 5 {
		t.Fatalf("%d clusters for 5 observations", len(oc.Clusters))
	}
	oc2 := NewRandomObsClusters(q, testKernel(q), []int{0}, 0, prng.New(3))
	if len(oc2.Clusters) != 1 {
		t.Fatalf("count 0 should clamp to 1, got %d", len(oc2.Clusters))
	}
}

func TestObsDetachAttachRoundTrip(t *testing.T) {
	q := testData(t, 8, 12, 3)
	g := prng.New(4)
	oc := NewRandomObsClusters(q, testKernel(q), []int{1, 3, 5}, 3, g)
	before := oc.Score()
	home := oc.Assign[7]
	col := oc.DetachObs(7)
	gain := oc.GainAttachObs(col, home)
	// Re-attaching home must restore the exact score (exact statistics).
	oc.AttachObs(7, home)
	if err := oc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if oc.Score() != before {
		t.Fatalf("detach/attach changed score %v -> %v", before, oc.Score())
	}
	_ = gain
}

func TestObsAttachNewCluster(t *testing.T) {
	q := testData(t, 8, 12, 5)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0, 2}, 2, prng.New(5))
	col := oc.DetachObs(3)
	if err := oc.CheckInvariants(); err != nil {
		t.Fatalf("while 3 is detached: %v", err)
	}
	want := oc.GainAttachObs(col, len(oc.Clusters))
	preScore := oc.Score()
	oc.AttachObs(3, len(oc.Clusters))
	if err := oc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := oc.Score() - preScore; !approxEqual(got, want) {
		t.Fatalf("new-cluster gain %v, realized %v", want, got)
	}
	if last := oc.Obs(len(oc.Clusters) - 1); len(last) != 1 || last[0] != 3 {
		t.Fatalf("new cluster contents %v", last)
	}
}

func TestObsDetachRemovesEmptyCluster(t *testing.T) {
	q := testData(t, 6, 8, 6)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0, 1}, 2, prng.New(6))
	// Move everything out of cluster 0 except one observation, then detach it.
	for len(oc.Obs(0)) > 1 {
		j := int(oc.Obs(0)[0])
		oc.DetachObs(j)
		oc.AttachObs(j, 1%len(oc.Clusters))
	}
	before := len(oc.Clusters)
	j := int(oc.Obs(0)[0])
	oc.DetachObs(j)
	if len(oc.Clusters) != before-1 {
		t.Fatal("empty cluster not removed")
	}
	if err := oc.CheckInvariants(); err != nil {
		t.Fatalf("while %d is detached: %v", j, err)
	}
	oc.AttachObs(j, 0)
	if err := oc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestObsLayoutFollowsMoves: the observation layout lists every cluster's
// observations in its run, and a detached one past the runs, after every
// move of a random sequence into old and new clusters, with merges between
// (a standalone partition keeps the same layout as a nested one).
func TestObsLayoutFollowsMoves(t *testing.T) {
	q := testData(t, 6, 40, 12)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0, 1, 2}, 5, prng.New(12))
	g := prng.New(13)
	for step := range 400 {
		j := g.Intn(q.M)
		oc.DetachObs(j)
		if err := oc.CheckInvariants(); err != nil {
			t.Fatalf("step %d, %d detached: %v", step, j, err)
		}
		oc.AttachObs(j, g.Intn(len(oc.Clusters)+1))
		if step%50 == 49 && len(oc.Clusters) > 1 {
			oc.MergeObs(len(oc.Clusters)-1, 0)
		}
		if err := oc.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestCheckInvariantsBoundsCells: a cell outside ±MaxAbsCell, which only a
// QData built by hand can hold, fails the invariants.
func TestCheckInvariantsBoundsCells(t *testing.T) {
	q := testData(t, 4, 10, 14)
	cc := NewRandomCoClustering(q, testKernel(q), 2, 2, prng.New(14))
	if err := cc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q.Cells[17] = score.MaxAbsCell + 1
	cc = NewRandomCoClustering(q, testKernel(q), 2, 2, prng.New(14))
	if err := cc.CheckInvariants(); err == nil {
		t.Fatal("a cell past MaxAbsCell passed the invariants")
	}
}

func TestObsMergeGainRealized(t *testing.T) {
	q := testData(t, 8, 15, 7)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0, 1, 2, 3}, 4, prng.New(7))
	if len(oc.Clusters) < 2 {
		t.Skip("random init produced one cluster")
	}
	want := oc.GainMergeObs(0, 1)
	before := oc.Score()
	oc.MergeObs(0, 1)
	if err := oc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := oc.Score() - before; !approxEqual(got, want) {
		t.Fatalf("merge gain %v, realized %v", want, got)
	}
}

// TestMergeObsRotates: a merge leaves dst's run holding both clusters'
// observations and every other run its own, and moves no entry of the
// layout outside the runs from src to dst — for dst before and after src,
// the first and last runs, adjacent runs, and merges right after a move.
func TestMergeObsRotates(t *testing.T) {
	cases := []struct {
		name     string
		src, dst int
		// move, when set, detaches observation move[0] and attaches it to
		// cluster move[1] (len(Clusters) opens one) before the merge.
		move []int
	}{
		{name: "dst before src", src: 3, dst: 1},
		{name: "dst after src", src: 1, dst: 3},
		{name: "first into last", src: 0, dst: 4},
		{name: "last into first", src: 4, dst: 0},
		{name: "adjacent up", src: 2, dst: 3},
		{name: "adjacent down", src: 3, dst: 2},
		{name: "new cluster into another", move: []int{7, 5}, src: 5, dst: 1},
		{name: "into the cluster just joined", move: []int{11, 0}, src: 2, dst: 0},
	}
	for _, tc := range cases {
		q := testData(t, 6, 40, 15)
		oc := NewRandomObsClusters(q, testKernel(q), []int{0, 1, 2}, 5, prng.New(15))
		if len(oc.Clusters) != 5 {
			t.Fatalf("fixture has %d clusters, want 5", len(oc.Clusters))
		}
		if tc.move != nil {
			oc.DetachObs(tc.move[0])
			oc.AttachObs(tc.move[0], tc.move[1])
		}
		var want [][]int32
		for ci := range oc.Clusters {
			if ci != tc.src {
				want = append(want, slices.Clone(oc.Obs(ci)))
			}
		}
		at := tc.dst
		if tc.src < tc.dst {
			at--
		}
		want[at] = append(want[at], oc.Obs(tc.src)...)
		lo, hi := oc.runStart(min(tc.src, tc.dst)), int(oc.ends[max(tc.src, tc.dst)])
		perm := slices.Clone(oc.perm)
		oc.MergeObs(tc.src, tc.dst)
		if err := oc.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for ci := range want {
			got := slices.Clone(oc.Obs(ci))
			slices.Sort(got)
			slices.Sort(want[ci])
			if !slices.Equal(got, want[ci]) {
				t.Fatalf("%s: run %d holds %v, want %v", tc.name, ci, got, want[ci])
			}
		}
		if !slices.Equal(oc.perm[:lo], perm[:lo]) || !slices.Equal(oc.perm[hi:], perm[hi:]) {
			t.Fatalf("%s: the merge moved entries outside [%d, %d)", tc.name, lo, hi)
		}
	}
}

func TestObsMergeGainRetainIsZero(t *testing.T) {
	q := testData(t, 6, 10, 8)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0}, 3, prng.New(8))
	if oc.GainMergeObs(0, 0) != 0 {
		t.Fatal("retain gain must be zero")
	}
}

func TestAddRemoveVarExact(t *testing.T) {
	q := testData(t, 8, 10, 9)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0, 1}, 2, prng.New(9))
	before := oc.Score()
	oc.AddVar(5)
	oc.RemoveVar(5)
	if oc.Score() != before {
		t.Fatal("AddVar/RemoveVar not exactly inverse")
	}
	if err := oc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVarPanicsOnNonMember(t *testing.T) {
	q := testData(t, 6, 6, 10)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0, 1}, 2, prng.New(10))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	oc.RemoveVar(4)
}

func TestObsSnapshotCanonical(t *testing.T) {
	q := testData(t, 6, 9, 11)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0}, 3, prng.New(11))
	snap := oc.Snapshot()
	covered := map[int]bool{}
	prevFirst := -1
	for _, cl := range snap {
		if cl[0] <= prevFirst {
			t.Fatal("snapshot clusters not ordered by first member")
		}
		prevFirst = cl[0]
		for i, j := range cl {
			if i > 0 && cl[i-1] >= j {
				t.Fatal("snapshot cluster not sorted")
			}
			covered[j] = true
		}
	}
	if len(covered) != 9 {
		t.Fatalf("snapshot covers %d of 9", len(covered))
	}
}

func newCC(t *testing.T, n, m, k0 int, seed uint64) (*CoClustering, *score.QData) {
	t.Helper()
	q := testData(t, n, m, seed)
	g := prng.New(seed + 100)
	cc := NewRandomCoClustering(q, testKernel(q), k0, 3, g)
	if err := cc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return cc, q
}

func TestNewRandomCoClusteringCoversAllVars(t *testing.T) {
	cc, q := newCC(t, 20, 15, 5, 12)
	seen := 0
	for _, vc := range cc.Clusters {
		seen += len(vc.Vars)
	}
	if seen != q.N {
		t.Fatalf("clusters cover %d of %d variables", seen, q.N)
	}
}

func TestVarDetachAttachRoundTrip(t *testing.T) {
	cc, _ := newCC(t, 15, 12, 4, 13)
	before := cc.Score()
	home := cc.Assign[9]
	cc.DetachVar(9)
	cc.AttachVar(9, home)
	if cc.Score() != before {
		t.Fatalf("detach/attach changed score %v -> %v", before, cc.Score())
	}
	if err := cc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVarAttachGainRealized(t *testing.T) {
	cc, _ := newCC(t, 15, 12, 4, 14)
	cc.DetachVar(3)
	for to := 0; to <= len(cc.Clusters); to++ {
		want := cc.GainAttachVar(3, to)
		before := cc.Score()
		cc.AttachVar(3, to)
		got := cc.Score() - before
		if !approxEqual(got, want) {
			t.Fatalf("to=%d: gain %v, realized %v", to, want, got)
		}
		cc.DetachVar(3)
	}
	cc.AttachVar(3, 0)
	if err := cc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVarAttachNewClusterSingleObsCluster(t *testing.T) {
	cc, q := newCC(t, 10, 8, 3, 15)
	cc.DetachVar(2)
	cc.AttachVar(2, len(cc.Clusters))
	vc := cc.Clusters[len(cc.Clusters)-1]
	if len(vc.Vars) != 1 || vc.Vars[0] != 2 {
		t.Fatalf("singleton cluster vars %v", vc.Vars)
	}
	if len(vc.Clusters) != 1 || len(vc.Obs(0)) != q.M {
		t.Fatal("new variable cluster must start with one observation cluster over all observations")
	}
	if err := cc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVarDetachRemovesEmptyCluster(t *testing.T) {
	cc, _ := newCC(t, 10, 8, 3, 16)
	// Shrink cluster 0 to one variable.
	for len(cc.Clusters[0].Vars) > 1 {
		x := cc.Clusters[0].Vars[0]
		cc.DetachVar(x)
		cc.AttachVar(x, 1%len(cc.Clusters))
	}
	before := len(cc.Clusters)
	x := cc.Clusters[0].Vars[0]
	cc.DetachVar(x)
	if len(cc.Clusters) != before-1 {
		t.Fatal("empty variable cluster not removed")
	}
	cc.AttachVar(x, 0)
	if err := cc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeVarGainRealized(t *testing.T) {
	cc, _ := newCC(t, 18, 10, 5, 17)
	if len(cc.Clusters) < 2 {
		t.Skip("single cluster")
	}
	cols := cc.VarColumnStats(nil, cc.Clusters[0].Vars...)
	want := cc.GainMergeVar(cols, 0, 1)
	before := cc.Score()
	cc.MergeVar(0, 1)
	if got := cc.Score() - before; !approxEqual(got, want) {
		t.Fatalf("merge gain %v, realized %v", want, got)
	}
	if err := cc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeVarGainRetainIsZero(t *testing.T) {
	cc, _ := newCC(t, 12, 8, 3, 18)
	cols := cc.VarColumnStats(nil, cc.Clusters[0].Vars...)
	if cc.GainMergeVar(cols, 0, 0) != 0 {
		t.Fatal("retain gain must be zero")
	}
}

func TestVarSnapshotCanonical(t *testing.T) {
	cc, q := newCC(t, 14, 8, 4, 19)
	snap := cc.VarSnapshot()
	covered := map[int]bool{}
	prevFirst := -1
	for _, cl := range snap {
		if cl[0] <= prevFirst {
			t.Fatal("snapshot not ordered by first member")
		}
		prevFirst = cl[0]
		for _, x := range cl {
			covered[x] = true
		}
	}
	if len(covered) != q.N {
		t.Fatalf("snapshot covers %d of %d", len(covered), q.N)
	}
}

// TestRandomOpSequenceInvariants drives the state through random mixed
// operations and verifies, after every one of them, the exact-statistics
// invariant and that each stored block score is bit-equal to a fresh
// evaluation.
func TestRandomOpSequenceInvariants(t *testing.T) {
	cc, q := newCC(t, 16, 12, 4, 20)
	check := func(step int) {
		t.Helper()
		if err := cc.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	g := prng.New(999)
	for step := 0; step < 200; step++ {
		switch g.Intn(4) {
		case 0: // move a variable
			x := g.Intn(q.N)
			cc.DetachVar(x)
			check(step)
			to := g.Intn(len(cc.Clusters) + 1)
			cc.AttachVar(x, to)
		case 1: // merge two variable clusters
			if len(cc.Clusters) >= 2 {
				src := g.Intn(len(cc.Clusters))
				dst := g.Intn(len(cc.Clusters))
				if src != dst {
					cc.MergeVar(src, dst)
				}
			}
		case 2: // move an observation within a random cluster
			oc := cc.Clusters[g.Intn(len(cc.Clusters))]
			j := g.Intn(q.M)
			oc.DetachObs(j)
			check(step)
			to := g.Intn(len(oc.Clusters) + 1)
			oc.AttachObs(j, to)
		case 3: // merge two observation clusters
			oc := cc.Clusters[g.Intn(len(cc.Clusters))]
			if len(oc.Clusters) >= 2 {
				src := g.Intn(len(oc.Clusters))
				dst := g.Intn(len(oc.Clusters))
				if src != dst {
					oc.MergeObs(src, dst)
				}
			}
		}
		check(step)
	}
}

// TestCheckInvariantsCatchesStaleScore: a block whose statistics moved
// without its stored score following is reported.
func TestCheckInvariantsCatchesStaleScore(t *testing.T) {
	q := testData(t, 6, 8, 4)
	oc := NewRandomObsClusters(q, testKernel(q), []int{0, 1, 2}, 2, prng.New(5))
	if err := oc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	oc.Clusters[0].logML = math.Nextafter(oc.Clusters[0].logML, math.Inf(1))
	if err := oc.CheckInvariants(); err == nil {
		t.Fatal("a stored score one ulp off passed")
	}
}

// TestScoreDecomposable: the total score must equal the sum of block scores
// computed independently, for arbitrary partitions (property-based).
func TestScoreDecomposable(t *testing.T) {
	q := testData(t, 10, 10, 21)
	pr := score.DefaultPrior()
	check := func(seed uint16) bool {
		g := prng.New(uint64(seed))
		cc := NewRandomCoClustering(q, score.NewKernel(pr, q.N*q.M), 3, 2, g)
		var total float64
		for _, vc := range cc.Clusters {
			for _, c := range vc.Clusters {
				total += pr.LogML(c.Stats)
			}
		}
		return approxEqual(total, cc.Score())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGainAttachVar(b *testing.B) {
	d, _, _ := synth.Generate(synth.Config{N: 100, M: 100, Seed: 1})
	d.Standardize()
	q := score.QuantizeData(d)
	cc := NewRandomCoClustering(q, testKernel(q), 10, 5, prng.New(1))
	cc.DetachVar(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.GainAttachVar(50, i%len(cc.Clusters))
	}
}

func BenchmarkMergeGains(b *testing.B) {
	d, _, _ := synth.Generate(synth.Config{N: 100, M: 100, Seed: 1})
	d.Standardize()
	q := score.QuantizeData(d)
	cc := NewRandomCoClustering(q, testKernel(q), 10, 5, prng.New(1))
	cols := cc.VarColumnStats(nil, cc.Clusters[0].Vars...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.GainMergeVar(cols, 0, 1%len(cc.Clusters))
	}
}

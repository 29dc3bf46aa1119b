package tree

import (
	"reflect"
	"testing"

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

// evenClusters partitions observations 0..m-1 into k equal slabs.
func evenClusters(m, k int) [][]int {
	out := make([][]int, k)
	for j := 0; j < m; j++ {
		out[j*k/m] = append(out[j*k/m], j)
	}
	return out
}

func TestBuildSingleCluster(t *testing.T) {
	q := testData(t, 6, 10, 1)
	tr := Build(q, score.DefaultPrior(), []int{0, 1}, evenClusters(10, 1), nil)
	if !tr.Root.IsLeaf() {
		t.Fatal("single cluster must give a single leaf root")
	}
	if len(tr.Root.Obs) != 10 {
		t.Fatalf("root covers %d of 10", len(tr.Root.Obs))
	}
	if err := tr.CheckInvariants(q); err != nil {
		t.Fatal(err)
	}
}

func TestBuildStructure(t *testing.T) {
	q := testData(t, 8, 20, 2)
	clusters := evenClusters(20, 5)
	tr := Build(q, score.DefaultPrior(), []int{1, 3, 5}, clusters, nil)
	if err := tr.CheckInvariants(q); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Leaves()); got != 5 {
		t.Fatalf("%d leaves, want 5", got)
	}
	if got := len(tr.InternalNodes()); got != 4 {
		t.Fatalf("%d internal nodes, want 4", got)
	}
	if len(tr.Root.Obs) != 20 {
		t.Fatal("root must cover all observations")
	}
}

func TestLeavesPreserveClusters(t *testing.T) {
	q := testData(t, 6, 12, 3)
	clusters := [][]int{{0, 3, 6}, {1, 4, 7, 9}, {2, 5, 8, 10, 11}}
	tr := Build(q, score.DefaultPrior(), []int{0, 2}, clusters, nil)
	leaves := tr.Leaves()
	got := map[int]bool{}
	for _, l := range leaves {
		got[len(l.Obs)] = true
	}
	if !got[3] || !got[4] || !got[5] {
		t.Fatalf("leaf sizes lost: %v", leaves)
	}
}

func TestInternalNodesPreOrder(t *testing.T) {
	q := testData(t, 4, 8, 4)
	tr := Build(q, score.DefaultPrior(), []int{0, 1}, evenClusters(8, 4), nil)
	nodes := tr.InternalNodes()
	if len(nodes) == 0 || nodes[0] != tr.Root {
		t.Fatal("pre-order must start at the root")
	}
}

// TestMergePrefersCoherentNeighbors: observation clusters drawn from two
// regimes must merge within regimes first.
func TestMergePrefersCoherentNeighbors(t *testing.T) {
	d, _, err := synth.Generate(synth.Config{N: 10, M: 40, Regulators: 2, Modules: 2, Noise: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d.Standardize()
	q := score.QuantizeData(d)
	// Hand-build 4 clusters: two from the low regime of variable 2's
	// module, two from the high regime, interleaved so only scores (not
	// order) can pair them.
	var lo, hi []int
	for j := 0; j < q.M; j++ {
		if q.At(2, j) < 0 {
			lo = append(lo, j)
		} else {
			hi = append(hi, j)
		}
	}
	if len(lo) < 4 || len(hi) < 4 {
		t.Skip("degenerate regime split")
	}
	clusters := [][]int{lo[:len(lo)/2], lo[len(lo)/2:], hi[:len(hi)/2], hi[len(hi)/2:]}
	tr := Build(q, score.DefaultPrior(), []int{2, 3, 4}, clusters, nil)
	if err := tr.CheckInvariants(q); err != nil {
		t.Fatal(err)
	}
	// The root split should separate lo from hi: one child holds all lo.
	left := tr.Root.Left.Obs
	isLo := map[int]bool{}
	for _, j := range lo {
		isLo[j] = true
	}
	loCount := 0
	for _, j := range left {
		if isLo[j] {
			loCount++
		}
	}
	if frac := float64(loCount) / float64(len(left)); frac > 0.2 && frac < 0.8 {
		t.Fatalf("root split mixes regimes: %.2f of left child is low-regime", frac)
	}
}

func TestBuildDeterministic(t *testing.T) {
	q := testData(t, 8, 16, 6)
	clusters := evenClusters(16, 6)
	a := Build(q, score.DefaultPrior(), []int{0, 1, 2}, clusters, nil)
	b := Build(q, score.DefaultPrior(), []int{0, 1, 2}, clusters, nil)
	if !reflect.DeepEqual(shape(a.Root), shape(b.Root)) {
		t.Fatal("builds differ")
	}
}

// shape serializes a tree's structure for comparison.
func shape(n *Node) [][]int {
	if n == nil {
		return nil
	}
	out := [][]int{n.Obs}
	out = append(out, shape(n.Left)...)
	out = append(out, shape(n.Right)...)
	return out
}

// TestBuildParallelMatchesSequential: the §4.2 contract for tree building.
func TestBuildParallelMatchesSequential(t *testing.T) {
	q := testData(t, 10, 24, 7)
	pr := score.DefaultPrior()
	vars := []int{1, 4, 7}
	clusters := evenClusters(24, 8)
	want := shape(Build(q, pr, vars, clusters, nil).Root)
	kern := score.NewKernel(pr, q.N*q.M)
	for _, p := range []int{1, 2, 3, 5, 8} {
		_, err := comm.Run(p, func(c *comm.Comm) error {
			tr := BuildWithComm(rank.Context{Comm: c}, q, kern, vars, clusters)
			if !reflect.DeepEqual(shape(tr.Root), want) {
				t.Errorf("p=%d rank %d tree differs", p, c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestBuildParallelDistributionRule: a merge round is partitioned over ranks
// only when its pairs cost trace.Distributed, which real leaf counts (~√m)
// never do: BuildWithComm is Build on every rank with zero collectives, and
// the recording charges none (DESIGN §19). With the rule's answer forced the
// other way, every round enters one all-reduce, the one collective the
// recording charges a distributed round, and still picks the same pair.
func TestBuildParallelDistributionRule(t *testing.T) {
	q := testData(t, 10, 24, 7)
	pr := score.DefaultPrior()
	vars := []int{1, 4, 7}
	clusters := evenClusters(24, 8)
	wl := &trace.Workload{}
	want := shape(Build(q, pr, vars, clusters, wl).Root)
	if ph := wl.Phase(PhaseBuild); len(ph.Items) != 0 || ph.Collectives != 0 || ph.Words != 0 || ph.SerialCost <= 0 {
		t.Fatalf("recording of replicated rounds: %d items, %d collectives, %d words, serial cost %v",
			len(ph.Items), ph.Collectives, ph.Words, ph.SerialCost)
	}
	kern := score.NewKernel(pr, q.N*q.M)
	for _, forced := range []bool{false, true} {
		for _, p := range []int{2, 3} {
			evaluated := make([]int64, p)
			stats, err := comm.Run(p, func(c *comm.Comm) error {
				tr := BuildWithComm(rank.Context{Comm: c}, q, kern, vars, clusters)
				if forced {
					subtrees := leafNodes(q, vars, clusters)
					for len(subtrees) > 1 {
						best, st := pick(c, kern, subtrees, true)
						if st.Cost[0] != float64(st.Items[0]*mergeCost) {
							t.Errorf("p=%d rank %d: block of %d pairs costs %v", p, c.Rank(), st.Items[0], st.Cost[0])
						}
						evaluated[c.Rank()] += st.Items[0]
						subtrees[best] = merge(subtrees[best], subtrees[best+1])
						subtrees = append(subtrees[:best+1], subtrees[best+2:]...)
					}
					tr = &Tree{Root: subtrees[0]}
				}
				if !reflect.DeepEqual(shape(tr.Root), want) {
					t.Errorf("forced=%v p=%d rank %d tree differs", forced, p, c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("forced=%v p=%d: %v", forced, p, err)
			}
			// The work record charges one collective per distributed round:
			// none for the rule's answer, one per round when it is forced.
			wantCollectives := wl.Phase(PhaseBuild).Collectives
			if forced {
				wantCollectives = int64(len(clusters) - 1)
				// The ranks' blocks cover every pair of every round once.
				var sum int64
				for _, n := range evaluated {
					sum += n
				}
				if l := int64(len(clusters)); sum != l*(l-1)/2 {
					t.Fatalf("p=%d: blocks evaluated %d pairs, want %d", p, sum, l*(l-1)/2)
				}
			}
			for k, st := range stats {
				if st.Collectives != wantCollectives {
					t.Fatalf("forced=%v p=%d rank %d entered %d collectives, want %d", forced, p, k, st.Collectives, wantCollectives)
				}
			}
		}
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	q := testData(t, 4, 4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty cluster list")
		}
	}()
	Build(q, score.DefaultPrior(), []int{0}, nil, nil)
}

// TestBuildWithGaneSHClusters drives the real Algorithm 4 front half:
// GaneSH-sampled observation clusterings feed the tree builder.
func TestBuildWithGaneSHClusters(t *testing.T) {
	q := testData(t, 12, 25, 9)
	pr := score.DefaultPrior()
	// Lazy import cycle avoidance: sample clusters with a local Gibbs-free
	// partition (random) — the integration with GaneSH proper is tested in
	// the module package.
	g := prng.New(3)
	clusters := make([][]int, 5)
	for j := 0; j < q.M; j++ {
		c := g.Intn(5)
		clusters[c] = append(clusters[c], j)
	}
	var nonEmpty [][]int
	for _, cl := range clusters {
		if len(cl) > 0 {
			nonEmpty = append(nonEmpty, cl)
		}
	}
	tr := Build(q, pr, []int{0, 1, 2, 3}, nonEmpty, nil)
	if err := tr.CheckInvariants(q); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	q := testData(b, 20, 100, 1)
	clusters := evenClusters(100, 10)
	pr := score.DefaultPrior()
	vars := []int{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(q, pr, vars, clusters, nil)
	}
}

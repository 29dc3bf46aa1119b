package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"parsimone/internal/prng"
	"parsimone/internal/score"
)

// TestBatchedGainsMatchScalar: every batched gain is bit-equal to the scalar
// Gain* call it stands for, on both gather paths, on random co-clusterings,
// over every candidate range
// [lo, hi) of each decision — ranges that start, end or both inside the
// candidate list, the empty range, and the full one, the new-cluster
// candidate to == k included — with one Batch reused throughout, as a pool
// worker reuses its own. The cases add the attach-var decision's measured
// shape (480×32, about 95 variable clusters of about 6 observation
// clusters), observation counts that leave 1 and 5 cells in the gather's
// last group of eight (33, 37), cells at ±MaxAbsCell, and partitions of
// singleton observation clusters.
func TestBatchedGainsMatchScalar(t *testing.T) {
	cases := []struct {
		name          string
		n, m, k0, obs int
		extreme       int // the share of cells at ±MaxAbsCell, in 256ths
		seeds, iters  int
	}{
		{name: "small", n: 18, m: 14, seeds: 6, iters: 4},
		{name: "measured shape", n: 480, m: 32, k0: 95, obs: 6, seeds: 1, iters: 1},
		{name: "m=33 extreme cells", n: 40, m: 33, k0: 8, obs: 5, extreme: 85, seeds: 2, iters: 3},
		{name: "m=37 singletons", n: 30, m: 37, k0: 6, obs: 37, seeds: 2, iters: 3},
	}
	gatherPaths(t, func(t *testing.T) {
		var b Batch
		for _, tc := range cases {
			for seed := uint64(1); seed <= uint64(tc.seeds); seed++ {
				g := prng.New(seed + 40)
				q := testData(t, tc.n, tc.m, seed)
				if tc.extreme > 0 {
					q = randomData(g, tc.n, tc.m, tc.extreme)
				}
				k0, obs := 1+int(seed%5), 1+int(seed%4)
				if tc.k0 > 0 {
					k0, obs = tc.k0, tc.obs
				}
				cc := NewRandomCoClustering(q, testKernel(q), k0, obs, g)
				checkBatchedGains(t, fmt.Sprintf("%s seed %d", tc.name, seed), &b, cc, g, tc.iters)
			}
		}
	})
}

// randomData returns an n×m data set of quantized standard normal cells,
// of which about extreme/256 are ±MaxAbsCell instead.
func randomData(g *prng.MRG3, n, m, extreme int) *score.QData {
	q := &score.QData{Cells: make([]int32, n*m), N: n, M: m}
	for i := range q.Cells {
		if g.Intn(256) < extreme {
			q.Cells[i] = score.MaxAbsCell * int32(1-2*g.Intn(2))
		} else {
			q.Cells[i] = int32(score.Quantize(g.Normal()))
		}
	}
	return q
}

// checkBatchedGains runs iters rounds of the four decisions on cc — detach a
// variable and score its attachment, score a variable-cluster merge, detach
// an observation and score its attachment, score an obs-cluster merge —
// comparing every batched gain over every candidate range with the scalar
// call, and the state's invariants after each round.
func checkBatchedGains(t *testing.T, what string, b *Batch, cc *CoClustering, g *prng.MRG3, iters int) {
	t.Helper()
	q := cc.Q
	// ranges runs check over every [lo, hi) of n candidates.
	ranges := func(kind string, n int, batched func(lo int, out []float64), scalar func(i int) float64) {
		t.Helper()
		want := make([]float64, n)
		for i := range want {
			want[i] = scalar(i)
		}
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				out := make([]float64, hi-lo+1)
				out[hi-lo] = 42
				batched(lo, out[:hi-lo])
				for i := lo; i < hi; i++ {
					if math.Float64bits(out[i-lo]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s range [%d,%d) candidate %d: batched %v, scalar %v", what, kind, lo, hi, i, out[i-lo], want[i])
					}
				}
				if out[hi-lo] != 42 {
					t.Fatalf("%s %s range [%d,%d): wrote past the range", what, kind, lo, hi)
				}
			}
		}
	}
	for it := 0; it < iters; it++ {
		x := g.Intn(q.N)
		cc.DetachVar(x)
		k := len(cc.Clusters)
		ranges("attach-var", k+1,
			func(lo int, out []float64) { cc.GainsAttachVar(b, x, lo, out) },
			func(i int) float64 { return cc.GainAttachVar(x, i) })
		cc.AttachVar(x, g.Intn(k+1))

		src := g.Intn(len(cc.Clusters))
		cols := cc.VarColumnStats(nil, src)
		ranges("merge-var", len(cc.Clusters),
			func(lo int, out []float64) { cc.GainsMergeVar(b, cols, src, lo, out) },
			func(j int) float64 { return cc.GainMergeVar(cols, src, j) })

		oc := cc.Clusters[g.Intn(len(cc.Clusters))]
		j := g.Intn(q.M)
		col := oc.DetachObs(j)
		l := len(oc.Clusters)
		ranges("attach-obs", l+1,
			func(lo int, out []float64) { oc.GainsAttachObs(b, col, lo, out) },
			func(i int) float64 { return oc.GainAttachObs(col, i) })
		oc.AttachObs(j, g.Intn(l+1))

		osrc := g.Intn(len(oc.Clusters))
		ranges("merge-obs", len(oc.Clusters),
			func(lo int, out []float64) { oc.GainsMergeObs(b, osrc, lo, out) },
			func(i int) float64 { return oc.GainMergeObs(osrc, i) })
		if osrc != 0 {
			oc.MergeObs(osrc, 0)
		}
		if err := cc.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// TestGatherKernelMatchesPortable: the gather kernel's blocks are the
// portable loop's, field for field, over 10⁷ gathered cells — 3 300
// attach-var decisions at the measured shape, each on a state a few Gibbs
// moves from the last — and over decisions at every observation count
// 1 … 40 with cells at ±MaxAbsCell.
func TestGatherKernelMatchesPortable(t *testing.T) {
	if !useKernel {
		t.Skip("no gather kernel on this platform")
	}
	t.Cleanup(func() { useKernel = true })
	var kb, pb Batch
	same := func(what string, cc *CoClustering, x int) {
		t.Helper()
		out := make([]float64, len(cc.Clusters)+1)
		useKernel = true
		cc.GainsAttachVar(&kb, x, 0, out)
		useKernel = false
		cc.GainsAttachVar(&pb, x, 0, out)
		sameBlocks(t, what, &kb, &pb)
	}
	q := testData(t, 480, 32, 3)
	g := prng.New(77)
	cc := NewRandomCoClustering(q, testKernel(q), 95, 6, g)
	cells := 0
	for d := 0; cells < 10_000_000; d++ {
		x := g.Intn(q.N)
		cc.DetachVar(x)
		same(fmt.Sprintf("decision %d", d), cc, x)
		cells += (len(cc.Clusters) + 1) * q.M
		cc.AttachVar(x, g.Intn(len(cc.Clusters)+1))
		// Move a few observations, so the layouts change between decisions.
		for range 3 {
			oc := cc.Clusters[g.Intn(len(cc.Clusters))]
			j := g.Intn(q.M)
			oc.DetachObs(j)
			oc.AttachObs(j, g.Intn(len(oc.Clusters)+1))
		}
	}
	for m := 1; m <= 40; m++ {
		q := randomData(g, 12, m, 85)
		cc := NewRandomCoClustering(q, testKernel(q), 3, 1+m/3, g)
		cc.DetachVar(5)
		same(fmt.Sprintf("m=%d", m), cc, 5)
	}
}

// sameBlocks fails unless two batches gathered the same blocks, field for
// field.
func sameBlocks(t *testing.T, what string, kb, pb *Batch) {
	t.Helper()
	if !slices.Equal(kb.stats, pb.stats) {
		for i := range min(len(kb.stats), len(pb.stats)) {
			if kb.stats[i] != pb.stats[i] {
				t.Fatalf("%s: block %d is %+v on the kernel, %+v on the portable loop", what, i, kb.stats[i], pb.stats[i])
			}
		}
		t.Fatalf("%s: %d blocks on the kernel, %d on the portable loop", what, len(kb.stats), len(pb.stats))
	}
}

// TestMergeKernelMatchesPortable: the merge-var kernel's blocks are the
// portable loop's, field for field, over 10⁷ gathered cells
// — merge decisions at the measured shape over every range [lo, hi) that
// holds the source, starts past it or ends before it, each on a state a
// few Gibbs moves from the last — and over decisions at every observation
// count 1 … 40 with cells at ±MaxAbsCell.
func TestMergeKernelMatchesPortable(t *testing.T) {
	if !useKernel {
		t.Skip("no merge-var kernel on this platform")
	}
	t.Cleanup(func() { useKernel = true })
	var kb, pb Batch
	var cols []score.Stats
	same := func(what string, cc *CoClustering, src, lo, hi int) int {
		cols = cc.VarColumnStats(cols, src)
		out := make([]float64, hi-lo)
		useKernel = true
		cc.GainsMergeVar(&kb, cols, src, lo, out)
		useKernel = false
		cc.GainsMergeVar(&pb, cols, src, lo, out)
		sameBlocks(t, what, &kb, &pb)
		return len(kb.stats)
	}
	q := testData(t, 480, 32, 4)
	g := prng.New(78)
	cc := NewRandomCoClustering(q, testKernel(q), 95, 6, g)
	cells := 0
	for d := 0; cells < 10_000_000; d++ {
		k := len(cc.Clusters)
		src := g.Intn(k)
		lo := g.Intn(k)
		hi := lo + g.Intn(k-lo+1)
		if d%2 == 0 {
			lo, hi = 0, k
		}
		same(fmt.Sprintf("decision %d [%d,%d) src %d", d, lo, hi, src), cc, src, lo, hi)
		cells += (hi - lo) * q.M
		// Move a variable and a few observations, so the clusters and
		// layouts change between decisions.
		x := g.Intn(q.N)
		cc.DetachVar(x)
		cc.AttachVar(x, g.Intn(len(cc.Clusters)+1))
		for range 3 {
			oc := cc.Clusters[g.Intn(len(cc.Clusters))]
			j := g.Intn(q.M)
			oc.DetachObs(j)
			oc.AttachObs(j, g.Intn(len(oc.Clusters)+1))
		}
	}
	for m := 1; m <= 40; m++ {
		q := randomData(g, 12, m, 85)
		cc := NewRandomCoClustering(q, testKernel(q), 3, 1+m/3, g)
		for src := range cc.Clusters {
			same(fmt.Sprintf("m=%d src %d", m, src), cc, src, 0, len(cc.Clusters))
		}
	}
}

// TestGatherKernelBound pins the gather kernel's bound at maxKernelObs ± 1
// observations. Every cell is +MaxAbsCell and there is one observation
// cluster, so the gathered run sums to m·MaxAbsCell: up to the bound that
// fits the kernel's 32-bit running sums and both paths give the exact
// block; one past it the sum is 2³¹, which the kernel called directly
// wraps, and GainsAttachVar takes the portable loop with the same bits.
func TestGatherKernelBound(t *testing.T) {
	if !useKernel {
		t.Skip("no gather kernel on this platform")
	}
	t.Cleanup(func() { useKernel = true })
	for _, m := range []int{maxKernelObs - 1, maxKernelObs, maxKernelObs + 1} {
		q := &score.QData{Cells: make([]int32, 2*m), N: 2, M: m}
		for i := range q.Cells {
			q.Cells[i] = score.MaxAbsCell
		}
		cc := NewRandomCoClustering(q, testKernel(q), 1, 1, prng.New(5))
		cc.DetachVar(1)
		n := int64(2 * m)
		want := score.Stats{N: n, Sum: n * score.MaxAbsCell, SumSq: n * score.MaxAbsCell * score.MaxAbsCell}
		out := make([]float64, 1)
		for _, on := range []bool{true, false} {
			useKernel = on
			var b Batch
			cc.GainsAttachVar(&b, 1, 0, out)
			if len(b.stats) != 1 || b.stats[0] != want {
				t.Fatalf("m = maxKernelObs%+d, %s: gathered %+v, want %+v", m-maxKernelObs, pathName(on), b.stats, want)
			}
		}
		var b Batch
		gatherKernel(&b, cc, q.Row(1), 0, 1)
		if wraps := b.stats[0] != want; wraps != (m > maxKernelObs) {
			t.Fatalf("m = maxKernelObs%+d: the kernel called directly gathered %+v, want it exact only up to the bound (%+v)",
				m-maxKernelObs, b.stats[0], want)
		}
	}
}

// FuzzGainsAttachVar: on a co-clustering of arbitrary shape, partition and
// cells — every cell drawn from the fuzzed seed, a fuzzed share of them at
// ±MaxAbsCell — the attach-var gains are bit-equal on both gather paths to
// the scalar GainAttachVar, and the gathered blocks equal.
func FuzzGainsAttachVar(f *testing.F) {
	f.Add(uint64(1), uint8(18), uint8(14), uint8(5), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(60), uint8(33), uint8(20), uint8(6), uint8(3))
	f.Add(uint64(3), uint8(12), uint8(37), uint8(4), uint8(37), uint8(255))
	f.Add(uint64(4), uint8(2), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, m, k0, obs, extreme uint8) {
		nn, mm := 2+int(n%96), 1+int(m%70)
		g := prng.New(seed)
		q := randomData(g, nn, mm, int(extreme))
		cc := NewRandomCoClustering(q, testKernel(q), 1+int(k0)%nn, 1+int(obs), g)
		x := g.Intn(nn)
		cc.DetachVar(x)
		k := len(cc.Clusters)
		kernel := useKernel
		defer func() { useKernel = kernel }()
		var stats [2][]score.Stats
		for p, on := range []bool{false, kernel} {
			useKernel = on
			var b Batch
			out := make([]float64, k+1)
			cc.GainsAttachVar(&b, x, 0, out)
			for i := range out {
				if want := cc.GainAttachVar(x, i); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("kernel %v candidate %d: batched %v, scalar %v", on, i, out[i], want)
				}
			}
			stats[p] = b.stats
		}
		if !slices.Equal(stats[0], stats[1]) {
			t.Fatalf("blocks differ between the paths: %+v, %+v", stats[0], stats[1])
		}
	})
}

// FuzzGainsMergeVar: on a co-clustering of arbitrary shape, partition and
// cells — every cell drawn from the fuzzed seed, a fuzzed share of them at
// ±MaxAbsCell — the merge-var gains of a fuzzed source over a fuzzed range
// are bit-equal on both gather paths to the scalar GainMergeVar, and the
// gathered blocks equal.
func FuzzGainsMergeVar(f *testing.F) {
	f.Add(uint64(1), uint8(18), uint8(14), uint8(5), uint8(3), uint8(0), uint8(0), uint8(9))
	f.Add(uint64(2), uint8(60), uint8(33), uint8(20), uint8(6), uint8(3), uint8(4), uint8(2))
	f.Add(uint64(3), uint8(12), uint8(37), uint8(4), uint8(37), uint8(255), uint8(1), uint8(3))
	f.Add(uint64(4), uint8(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, m, k0, obs, extreme, lo, width uint8) {
		nn, mm := 2+int(n%96), 1+int(m%70)
		g := prng.New(seed)
		q := randomData(g, nn, mm, int(extreme))
		cc := NewRandomCoClustering(q, testKernel(q), 1+int(k0)%nn, 1+int(obs), g)
		k := len(cc.Clusters)
		src := g.Intn(k)
		l := int(lo) % (k + 1)
		h := l + int(width)%(k-l+1)
		cols := cc.VarColumnStats(nil, src)
		kernel := useKernel
		defer func() { useKernel = kernel }()
		var batches [2]Batch
		for p, on := range []bool{false, kernel} {
			useKernel = on
			out := make([]float64, h-l)
			cc.GainsMergeVar(&batches[p], cols, src, l, out)
			for i := range out {
				if want := cc.GainMergeVar(cols, src, l+i); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("kernel %v candidate %d: batched %v, scalar %v", on, l+i, out[i], want)
				}
			}
		}
		sameBlocks(t, "paths", &batches[1], &batches[0])
	})
}

// BenchmarkGainsMergeVar is one merge-var decision, scored through a kernel
// as the sampler scores it, at the attach-var benchmark's shape (480×32,
// about 95 variable clusters of about 6 observation clusters; the source
// holds about 5 variables), on each gather path. ns/cell is the time per
// gathered cell (M per candidate but the source).
func BenchmarkGainsMergeVar(b *testing.B) {
	q := testData(b, 480, 32, 1)
	cc := NewRandomCoClustering(q, testKernel(q), 95, 6, prng.New(1))
	cols := cc.VarColumnStats(nil, 40)
	out := make([]float64, len(cc.Clusters))
	var batch Batch
	kernel := useKernel
	b.Cleanup(func() { useKernel = kernel })
	for _, on := range []bool{false, true} {
		if on && !kernel {
			continue
		}
		b.Run(pathName(on), func(b *testing.B) {
			useKernel = on
			for range b.N {
				cc.GainsMergeVar(&batch, cols, 40, 0, out)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64((len(out)-1)*q.M), "ns/cell")
		})
	}
}

// BenchmarkGainsAttachVar is one attach-var decision, scored through a
// kernel as the sampler scores it, at the shape measured in the benchmark's
// `cluster` learn: 480×32, about 95 variable clusters of about 6
// observation clusters, on each gather path (the blocks are scored on the
// CPU's path). ns/gain is the time per candidate gain, ns/cell per gathered
// cell (M per candidate, the new-cluster candidate included).
func BenchmarkGainsAttachVar(b *testing.B) {
	q := testData(b, 480, 32, 1)
	cc := NewRandomCoClustering(q, testKernel(q), 95, 6, prng.New(1))
	cc.DetachVar(240)
	out := make([]float64, len(cc.Clusters)+1)
	var batch Batch
	kernel := useKernel
	b.Cleanup(func() { useKernel = kernel })
	for _, on := range []bool{false, true} {
		if on && !kernel {
			continue
		}
		b.Run(pathName(on), func(b *testing.B) {
			useKernel = on
			for range b.N {
				cc.GainsAttachVar(&batch, 240, 0, out)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64(len(out)), "ns/gain")
			b.ReportMetric(ns/float64(len(out)*q.M), "ns/cell")
		})
	}
}

// gatherPaths runs f once per gather path this platform has: the portable
// loop and, where the CPU has one, the AVX2 kernel, restoring the choice
// afterwards.
func gatherPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	kernel := useKernel
	t.Cleanup(func() { useKernel = kernel })
	for _, on := range []bool{false, true} {
		if on && !kernel {
			continue
		}
		useKernel = on
		t.Run(pathName(on), f)
	}
}

func pathName(kernel bool) string {
	if kernel {
		return "kernel"
	}
	return "portable"
}

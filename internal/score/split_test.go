package score

import (
	"fmt"
	"math"
	"testing"

	"parsimone/internal/prng"
)

// The certified decision's two constants as DESIGN §23 derives them, spelled
// here a second time on purpose: the tests below referee the derivation with
// their own copy, so halving either one here — or in split.go — without the
// other fails them.
const (
	refEps   = 0x1p-41      // |fastLog − math.Log| on [2⁻⁶⁴, 2⁶⁴)
	refSlack = 16 * 0x1p-53 // roundings per unit of |c1|+|αN·ln βN|+|c2|+|c3|
)

func TestSplitConstantsAreTheDerivedOnes(t *testing.T) {
	if fastLogEps != refEps || sumSlack != refSlack {
		t.Fatalf("split.go holds ε = %g, slack = %g; DESIGN §23 and this test %g, %g", fastLogEps, sumSlack, refEps, refSlack)
	}
}

// TestFastLogWithinBound referees ε where the approximation is worst and
// where it is most delicate: for every binary exponent fastLog accepts and
// every table interval, both endpoints, the midpoint (r = 0), and one ulp
// either side of each. The error against math.Log must stay within ε/2 —
// the factor two is the derivation's safety margin — and must exceed ε/4
// somewhere, which says the constant is the series' truncation error and
// not padding.
func TestFastLogWithinBound(t *testing.T) {
	var worst, worstAt float64
	check := func(x float64) {
		got := fastLog(x)
		if math.IsNaN(got) {
			t.Fatalf("fastLog refused %g (%#x)", x, math.Float64bits(x))
		}
		if err := math.Abs(got - math.Log(x)); err > worst {
			worst, worstAt = err, x
		}
	}
	const low = 52 - logTabBits
	for k := -fastLogMaxExp; k < fastLogMaxExp; k++ {
		for i := uint64(0); i < 1<<logTabBits; i++ {
			base := uint64(1023+k)<<52 | i<<low
			for _, b := range []uint64{
				base, base + 1, // left endpoint
				base + 1<<(low-1) - 1, base + 1<<(low-1), base + 1<<(low-1) + 1, // midpoint
				base + 1<<low - 2, base + 1<<low - 1, // right endpoint
			} {
				check(math.Float64frombits(b))
			}
		}
	}
	t.Logf("largest |fastLog − math.Log| %.4g at %g; ε/2 = %.4g", worst, worstAt, refEps/2)
	if worst > refEps/2 {
		t.Errorf("|fastLog − math.Log| reaches %g at %g, above ε/2 = %g", worst, worstAt, refEps/2)
	}
	if worst <= refEps/4 {
		t.Errorf("|fastLog − math.Log| never exceeds %g: ε = %g is more than four times what the approximation needs", worst, float64(refEps))
	}
	// The blocks the engines score have βN from β₀ to about
	// MaxBlockCells·MaxAbsValue²: inside the window, with room.
	for _, x := range []float64{DefaultPrior().Beta0, MaxBlockCells * MaxAbsValue * MaxAbsValue, 0x1p-64, math.Nextafter(0x1p64, 0)} {
		check(x)
	}
}

// TestFastLogRefuses: outside [2⁻⁶⁴, 2⁶⁴) there is no bound, so there is no
// answer — the caller takes the exact path.
func TestFastLogRefuses(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), -1, -0x1p-70, math.SmallestNonzeroFloat64, 0x1p-1022, 1e-300,
		math.Nextafter(0x1p-64, 0), 0x1p64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		if v := fastLog(x); !math.IsNaN(v) {
			t.Errorf("fastLog(%g) answered %g, want NaN", x, v)
		}
	}
}

// exactImproves is the expression SplitImproves stands for, spelled through
// Prior.LogML so the referee shares no code with the kernel.
func exactImproves(pr Prior, l, r Stats, totML float64) bool {
	return pr.LogML(l)+pr.LogML(r)-totML > 0
}

// refDelta recomputes the approximate δ̃ and its margin from the kernel's
// table, the prior's αN and c3 and this file's constants, or ok = false
// where SplitImproves must
// take the exact path whatever δ̃ is.
func refDelta(k *Kernel, l, r Stats, totML float64) (delta, margin float64, ok bool) {
	if l.N < 1 || r.N < 1 || l.N >= int64(len(k.tab)) || r.N >= int64(len(k.tab)) {
		return 0, 0, false
	}
	el, er := &k.tab[l.N], &k.tab[r.N]
	nl, nr := float64(l.N), float64(r.N)
	al, ar := k.prior.Alpha0+nl/2, k.prior.Alpha0+nr/2
	c3l, c3r := float64(nl/2*math.Log(2*math.Pi)), float64(nr/2*math.Log(2*math.Pi))
	pl, pr := al*fastLog(k.betaN(l)), ar*fastLog(k.betaN(r))
	if math.IsNaN(pl + pr) {
		return 0, 0, false
	}
	delta = (el.c1 - pl + el.c2 - c3l) + (er.c1 - pr + er.c2 - c3r) - totML
	gl := math.Abs(el.c1) + math.Abs(pl) + math.Abs(el.c2) + math.Abs(c3l)
	gr := math.Abs(er.c1) + math.Abs(pr) + math.Abs(er.c2) + math.Abs(c3r)
	return delta, refEps*(al+ar) + refSlack*(gl+gr), true
}

// checkSplit compares one decision with the exact expression and its path
// with the referee's margin. A δ̃ within a millionth of the margin's edge may
// fall either way (the referee sums the magnitudes in another order).
func checkSplit(t *testing.T, k *Kernel, l, r Stats, totML float64) (certified bool) {
	t.Helper()
	got, certified := k.SplitImproves(l, r, totML)
	if want := exactImproves(k.prior, l, r, totML); got != want {
		t.Fatalf("prior %+v, l %+v, r %+v, totML %v: SplitImproves %v (certified %v), exact expression %v",
			k.prior, l, r, totML, got, certified, want)
	}
	delta, margin, ok := refDelta(k, l, r, totML)
	if edge := math.Abs(math.Abs(delta) - margin); ok && edge < 1e-6*margin {
		return certified
	}
	if want := ok && math.Abs(delta) > margin; certified != want {
		t.Fatalf("prior %+v, l %+v, r %+v: certified %v, but δ̃ = %g against margin %g (defined %v)",
			k.prior, l, r, certified, delta, margin, ok)
	}
	return certified
}

// splitTestPriors adds to the kernel's sweep the corners the decision's
// margin has to survive: an off-centre mean, a β₀ whose logarithm alone is
// −690, and a prior strong enough that c1 dwarfs every data term.
func splitTestPriors() []Prior {
	return append(kernelTestPriors(),
		Prior{Mu0: 2.5, Lambda0: 0.1, Alpha0: 0.1, Beta0: 0.1},
		Prior{Mu0: 0, Lambda0: 0.1, Alpha0: 0.1, Beta0: 1e-300},
		Prior{Mu0: -1, Lambda0: 1e6, Alpha0: 3, Beta0: 0.5},
	)
}

// TestSplitImprovesMatchesExact is the decision's differential table test:
// over random blocks, degenerate shapes and counts at and beyond the table,
// for every test prior, SplitImproves returns the exact expression's bit and
// certifies exactly where the referee's margin says it may.
func TestSplitImprovesMatchesExact(t *testing.T) {
	const maxN = 512
	g := prng.New(43)
	for pi, pr := range splitTestPriors() {
		k := NewKernel(pr, maxN)
		var decisions, certified int
		try := func(l, r Stats) {
			decisions++
			if checkSplit(t, k, l, r, k.LogML(l.Plus(r))) {
				certified++
			}
		}
		for rep := 0; rep < 20000; rep++ {
			l, r := randStats(g, 63), randStats(g, 63)
			l.Add(Quantize(g.Normal())) // empty sides are among the shapes
			r.Add(Quantize(g.Normal()))
			try(l, r)
		}
		shapes := splitShapes(g)
		half := shapes[0][0]
		for _, c := range append(shapes, [][2]Stats{
			{randomStats(g, maxN-1), StatsOf([]int64{0})}, // the table's last count
			{{}, half}, {half, {}}, // an empty side
			{randomStats(g, maxN), half}, // first count beyond the table
			{randomStats(g, 3*maxN), half},
			{randomStats(g, MaxBlockCells/2), half},
			{{N: -3, Sum: 5, SumSq: 9}, half},                     // not a block at all
			{{N: 4, Sum: 1 << 40, SumSq: 1}, half},                // SumSq < Sum²/N: the ss guard
			{{N: 2, Sum: 0, SumSq: 1 << 62}, StatsOf([]int64{0})}, // the largest βN a block can have
		}...) {
			try(c[0], c[1])
		}
		t.Logf("prior %d: %d decisions, %d certified", pi, decisions, certified)
		if pi == 0 && certified < decisions*99/100 {
			t.Errorf("default prior: only %d of %d decisions certified", certified, decisions)
		}
	}
}

// splitShapes are the block pairs whose decisions are most likely to be
// delicate: equal halves, single-cell sides, constant columns (ss = 0, so βN
// is β₀ plus the shrinkage term alone), and ordinary blocks small and large.
func splitShapes(g *prng.MRG3) [][2]Stats {
	cell := func(v float64) Stats { return StatsOf([]int64{Quantize(v)}) }
	constant := func(n int, v float64) Stats {
		var s Stats
		for i := 0; i < n; i++ {
			s.Add(Quantize(v))
		}
		return s
	}
	half := randStats(g, 40)
	half.Add(Quantize(0.5)) // never empty
	big := randomStats(g, 400)
	return [][2]Stats{
		{half, half},
		{cell(0.25), cell(0.25)},
		{cell(-8), cell(8)},
		{cell(1.5), half},
		{constant(30, 1), constant(30, 1)},
		{constant(17, -2), constant(23, 3)},
		{constant(9, 0), half},
		{half, big},
		{big, randomStats(g, 111)},
	}
}

// TestSplitImprovesNearTies puts every shape on the knife edge. totML is a
// free argument, so a tie is one assignment away: at totML = logML(L) +
// logML(R) the exact δ is zero and an ulp either side it is one rounding from
// zero — δ̃ is then the approximation's own error, which the derivation keeps
// inside the margin, so the exact expression must decide. Shifting totML
// places δ̃ itself: ¾ of the margin from zero is still the exact path (the
// row that fails if ε is halved here but not in split.go), 1½ margins out the
// certificate must hold (the row that fails if ε is doubled there).
func TestSplitImprovesNearTies(t *testing.T) {
	g := prng.New(47)
	for pi, pr := range splitTestPriors() {
		k := NewKernel(pr, 512)
		for si, c := range splitShapes(g) {
			l, r := c[0], c[1]
			tie := k.LogML(l) + k.LogML(r)
			approx, margin, ok := refDelta(k, l, r, 0) // δ̃ + totML
			for _, row := range []struct {
				totML     float64
				certified bool
			}{
				{tie, false},
				{math.Nextafter(tie, math.Inf(1)), false},
				{math.Nextafter(tie, math.Inf(-1)), false},
				{approx + 0.75*margin, false},
				{approx - 0.75*margin, false},
				{approx + 1.5*margin, ok},
				{approx - 1.5*margin, ok},
			} {
				if got := checkSplit(t, k, l, r, row.totML); got != row.certified {
					t.Errorf("prior %d shape %d, totML = tie%+g (margin %g): certified %v, want %v",
						pi, si, row.totML-tie, margin, got, row.certified)
				}
			}
		}
	}
}

// TestSplitImprovesDataTie reaches a near tie the way the engine could: with
// totML the resample total's own score. It bisects R's SumSq — the finest
// knob integer statistics have, 2⁻³² per step — between R as tight as its
// sum allows (the split scores high) and R as drawn from L's distribution
// (the split is penalised); at the crossing |δ| is one step from zero, well
// inside the margin of blocks this large, so both neighbours must be decided
// by the exact expression.
func TestSplitImprovesDataTie(t *testing.T) {
	const n = 2000
	g := prng.New(53)
	for pi, pr := range []Prior{DefaultPrior(), {Mu0: 2.5, Lambda0: 0.1, Alpha0: 0.1, Beta0: 0.1}, {Mu0: 0, Lambda0: 1, Alpha0: 2, Beta0: 1e-3}} {
		k := NewKernel(pr, 2*n)
		var l, r Stats
		for i := 0; i < n; i++ {
			l.Add(Quantize(g.Normal()))
			r.Add(Quantize(g.Normal()))
		}
		at := func(sq int64) (Stats, float64) {
			rr := Stats{N: r.N, Sum: r.Sum, SumSq: sq}
			return rr, k.LogML(l.Plus(rr))
		}
		delta := func(sq int64) float64 {
			rr, tot := at(sq)
			return pr.LogML(l) + pr.LogML(rr) - tot
		}
		lo, hi := r.Sum*r.Sum/r.N+1, r.SumSq
		if !(delta(lo) > 0 && delta(hi) < 0) {
			t.Fatalf("prior %d: no crossing between δ = %g and %g", pi, delta(lo), delta(hi))
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; delta(mid) > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		for _, sq := range []int64{lo, hi} {
			rr, tot := at(sq)
			if checkSplit(t, k, l, rr, tot) {
				_, margin, _ := refDelta(k, l, rr, tot)
				t.Errorf("prior %d: δ = %g certified against margin %g", pi, delta(sq), margin)
			}
		}
	}
}

// FuzzSplitImproves: for arbitrary integer triples — blocks or not — any
// valid prior and any totML, the decision is the exact expression's bit, on
// the certified path, the near-tie fallback, and the out-of-table fallback
// through Prior.LogML alike.
func FuzzSplitImproves(f *testing.F) {
	f.Add(int64(8), int64(1000), int64(250000), int64(8), int64(-1000), int64(250000), 0.0, 0.1, 0.1, 0.1, 0.0)
	f.Add(int64(30), int64(30)<<16, int64(30)<<32, int64(30), int64(30)<<16, int64(30)<<32, 0.0, 0.1, 0.1, 0.1, 0.0)
	f.Add(int64(1), int64(0), int64(0), int64(1), int64(0), int64(0), 2.5, 0.1, 0.1, 1e-300, 1e-12)
	f.Add(int64(127), int64(5)<<20, int64(9)<<40, int64(128), int64(-7)<<20, int64(3)<<41, -1.0, 1e6, 3.0, 0.5, -1e-9)
	f.Add(int64(0), int64(0), int64(0), int64(5000), int64(-123456), int64(98765432), 1.5, 2.0, 3.0, 4.0, math.NaN())
	f.Add(int64(MaxBlockCells), int64(1)<<40, int64(1)<<50, int64(-2), int64(1), int64(1), -1e6, 1e-8, 1e-8, 1e308, math.Inf(1))
	f.Fuzz(func(t *testing.T, n1, sum1, sq1, n2, sum2, sq2 int64, mu0, lambda0, alpha0, beta0, off float64) {
		pr := Prior{Mu0: mu0, Lambda0: lambda0, Alpha0: alpha0, Beta0: beta0}
		if pr.Validate() != nil {
			pr = DefaultPrior()
		}
		const maxN = 128
		k := NewKernel(pr, maxN)
		fold := func(n int64) int64 { return (n%maxN + maxN) % maxN }
		for _, c := range [][2]Stats{
			{{N: n1, Sum: sum1, SumSq: sq1}, {N: n2, Sum: sum2, SumSq: sq2}},
			{{N: fold(n1), Sum: sum1, SumSq: sq1}, {N: fold(n2), Sum: sum2, SumSq: sq2}},
			// In-table counts with sums a block of that size can have.
			{{N: fold(n1), Sum: sum1 % (fold(n1)<<19 + 1), SumSq: (sq1>>1 | 1) % (fold(n1)<<38 + 1)},
				{N: fold(n2), Sum: sum2 % (fold(n2)<<19 + 1), SumSq: (sq2>>1 | 1) % (fold(n2)<<38 + 1)}},
		} {
			l, r := c[0], c[1]
			totML := pr.LogML(l.Plus(r)) + off
			got, certified := k.SplitImproves(l, r, totML)
			if want := exactImproves(pr, l, r, totML); got != want {
				t.Fatalf("prior %+v, l %+v, r %+v, totML %v: SplitImproves %v (certified %v), exact expression %v",
					pr, l, r, totML, got, certified, want)
			}
		}
	})
}

func BenchmarkSplitImproves(b *testing.B) {
	pr := DefaultPrior()
	k := NewKernel(pr, 64)
	l := StatsOf([]int64{100, 200, 300, -100, 50, 70, 90, 1000})
	r := StatsOf([]int64{-40000, -52000, -61000, -38000, -45000, -70000})
	totML := k.LogML(l.Plus(r))
	var sink bool
	// The decision as the evaluator asks it: δ far from zero, no exact
	// logarithm evaluated.
	b.Run("certified", func(b *testing.B) {
		if _, certified := k.SplitImproves(l, r, totML); !certified {
			b.Fatal("not the certified path")
		}
		for i := 0; i < b.N; i++ {
			sink, _ = k.SplitImproves(l, r, totML)
		}
	})
	// A totML that puts δ̃ inside the margin: the approximate pass and then
	// the exact expression, the most a decision can cost.
	b.Run("fallback", func(b *testing.B) {
		tie := k.LogML(l) + k.LogML(r)
		if _, certified := k.SplitImproves(l, r, tie); certified {
			b.Fatal("not the fallback path")
		}
		for i := 0; i < b.N; i++ {
			sink, _ = k.SplitImproves(l, r, tie)
		}
	})
	// The decisions of pair-steps as the evaluator asks them, the totals'
	// LogMLBatch call included, in ns per decision on each path: one
	// resample of 1, 2, 3, 6 and 64 lanes, and four resamples with that
	// many lanes each, decided in one call. A pair-step of the assign
	// shape averages 5.5 lanes among 8.6 live thresholds
	// (core.BenchmarkLearnAssignShaped: 8 231 124 lanes and 12 797 410
	// threshold-steps in 1 485 305 pair-steps).
	b.Run("batch", func(b *testing.B) {
		kernel := useKernel
		b.Cleanup(func() { useKernel = kernel })
		k := NewKernel(pr, 1024)
		g := prng.New(61)
		cols := make([]Stats, 256)
		for i := range cols {
			cols[i] = randStats(g, 4)
			cols[i].Add(Quantize(g.Normal()))
		}
		// Four totals, then four resamples of 65 groups.
		const groups = 65
		bkt := make([]Stats, 4+4*groups)
		for q := range 4 {
			laneResample(g, bkt[4+q*groups:4+(q+1)*groups], cols)
			bkt[q] = bkt[4+q*groups+groups-1]
		}
		totML := make([]float64, 4)
		paths := []bool{false}
		if kernel {
			paths = append(paths, true)
		}
		for _, on := range paths {
			name := "portable"
			if on {
				name = "kernel"
			}
			b.Run(name, func(b *testing.B) {
				for _, pairs := range []int{1, 4} {
					for _, lanes := range []int{1, 2, 3, 6, 64} {
						var ln []Lane
						for q := range pairs {
							for i := range lanes {
								d := 3 + i*60/lanes
								if lanes == 64 {
									d = i
								}
								ln = append(ln, Lane{Left: int32(4 + q*groups + d), Total: int32(q)})
							}
						}
						dst := make([]Decision, len(ln))
						name := fmt.Sprintf("lanes=%d", lanes)
						if pairs > 1 {
							name = fmt.Sprintf("block/lanes=%d", lanes)
						}
						b.Run(name, func(b *testing.B) {
							useKernel = on
							k.LogMLBatch(totML, bkt[:4])
							if fallbacks, _ := k.SplitsImprove(dst, bkt, ln, totML); fallbacks != 0 {
								b.Fatal("not the certified path")
							}
							for range b.N {
								k.LogMLBatch(totML, bkt[:4])
								k.SplitsImprove(dst, bkt, ln, totML)
							}
							b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ln)), "ns/decision")
						})
					}
				}
			})
		}
	})
	// What the evaluator did before: two lookups and a subtraction, through
	// the kernel and through a warm memo.
	b.Run("exact-kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = k.LogML(l)+k.LogML(r)-totML > 0
		}
	})
	b.Run("exact-memo", func(b *testing.B) {
		m := NewMemo(k, 0)
		for i := 0; i < b.N; i++ {
			sink = m.LogML(l)+m.LogML(r)-totML > 0
		}
	})
	_ = sink
}

// checkLanes runs SplitsImprove over the lanes idx, tix of a call — the
// blocks bkt and their scores totML — and requires of every lane both bits
// of SplitImproves on the same blocks with its own total bkt[tix[i]] and
// totML[tix[i]], of the result the number of uncertified lanes and the table
// misses counted here — each uncertified lane's l and r whose count is
// outside the table — and of the elements past the lanes their sentinel. It
// returns how many lanes were certified.
func checkLanes(t *testing.T, k *Kernel, bkt []Stats, idx, tix []int32, totML []float64) (certified int) {
	t.Helper()
	const sentinel = Decision(0xA5)
	dst := make([]Decision, len(idx)+8)
	for i := range dst {
		dst[i] = sentinel
	}
	lanes := make([]Lane, len(idx))
	for i := range lanes {
		lanes[i] = Lane{Left: idx[i], Total: tix[i]}
	}
	fallbacks, misses := k.SplitsImprove(dst[:len(idx)], bkt, lanes, totML)
	outside := func(s Stats) int {
		if s.N < 0 || s.N >= int64(k.TableLen()) {
			return 1
		}
		return 0
	}
	want, wantMisses := 0, 0
	for i, d := range idx {
		l, tot := bkt[d], bkt[tix[i]]
		improves, cert := k.SplitImproves(l, tot.minus(l), totML[tix[i]])
		if dst[i] != decision(improves, cert) {
			t.Fatalf("prior %+v, tot %+v, lane %d of %d (l %+v): SplitsImprove %02b, SplitImproves improves %v certified %v",
				k.prior, tot, i, len(idx), l, dst[i], improves, cert)
		}
		if cert {
			certified++
		} else {
			want++
			wantMisses += outside(l) + outside(tot.minus(l))
		}
	}
	if misses != wantMisses {
		t.Fatalf("prior %+v: SplitsImprove reports %d table misses, want %d", k.prior, misses, wantMisses)
	}
	if fallbacks != want {
		t.Fatalf("prior %+v: SplitsImprove reports %d uncertified lanes of %d, SplitImproves %d", k.prior, fallbacks, len(idx), want)
	}
	for i := len(idx); i < len(dst); i++ {
		if dst[i] != sentinel {
			t.Fatalf("%d lanes: element %d past them overwritten", len(idx), i)
		}
	}
	return certified
}

// checkTotal is checkLanes for lanes that share one total, tot: the call's
// blocks are lefts followed by tot, scored k.LogML(tot).
func checkTotal(t *testing.T, k *Kernel, lefts []Stats, idx []int32, tot Stats) (certified int) {
	t.Helper()
	bkt := append(append([]Stats(nil), lefts...), tot)
	totML := make([]float64, len(bkt))
	totML[len(lefts)] = k.LogML(tot)
	tix := make([]int32, len(idx))
	for i := range tix {
		tix[i] = int32(len(lefts))
	}
	return checkLanes(t, k, bkt, idx, tix, totML)
}

// laneResample draws the blocks of one bucketed resample as the evaluator
// builds them: prefix sums over groups of 0–3 picks each from cols, which
// has 256 elements.
func laneResample(g *prng.MRG3, bkt, cols []Stats) {
	var run Stats
	for d := range bkt {
		x := g.Uint64()
		for range x & 3 {
			x >>= 8
			run.Merge(cols[x&255])
		}
		bkt[d] = run
	}
}

// laneIndices fills idx with group indices below 64, ten per draw.
func laneIndices(g *prng.MRG3, idx []int32) {
	var x uint64
	for i := range idx {
		if i%10 == 0 {
			x = g.Uint64()
		}
		idx[i] = int32(x & 63)
		x >>= 6
	}
}

// marginEdge returns, for a left block l and the right block r of the same
// size, the two right blocks whose Σx² straddle the point where δ̃ crosses
// m margins, with totML the total's own score; see
// TestSplitImprovesDataTie for the bisection.
func marginEdge(k *Kernel, l, r Stats, m float64) (below, above Stats, ok bool) {
	f := func(sq int64) float64 {
		rr := Stats{N: r.N, Sum: r.Sum, SumSq: sq}
		delta, margin, _ := refDelta(k, l, rr, k.LogML(l.Plus(rr)))
		return delta - m*margin
	}
	lo, hi := r.Sum*r.Sum/r.N+1, r.SumSq
	if !(f(lo) > 0 && f(hi) < 0) {
		return below, above, false
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Stats{N: r.N, Sum: r.Sum, SumSq: hi}, Stats{N: r.N, Sum: r.Sum, SumSq: lo}, true
}

// TestSplitsImproveMatchesScalar: every lane of SplitsImprove is
// SplitImproves' answer — its bit and its path — on the AVX2 kernel and on
// the portable loop: over 10⁷ lanes of evaluator-shaped calls for every
// test prior, each call one to four resamples whose lanes carry their own
// totals (odd and even lane counts per resample, totals in and out of the
// table), every batch length 0…17, counts at 0, 1, len(tab)−1 and len(tab)
// on either side and totals in and out of the table, Σx² near 2⁶³, negative
// sums, and δ̃ placed at ±¾ margins (the exact path) and ±1½ margins
// (certified) from zero.
func TestSplitsImproveMatchesScalar(t *testing.T) {
	logPaths(t, func(t *testing.T) {
		const maxN, groups, pairs = 512, 64, 4
		g := prng.New(59)
		priors := splitTestPriors()
		// A call's blocks as the evaluator lays them out: the resamples'
		// totals first, then each resample's prefix-summed buckets.
		bkt := make([]Stats, pairs+pairs*groups)
		totML := make([]float64, len(bkt))
		idx := make([]int32, pairs*groups)
		tix := make([]int32, pairs*groups)
		cols := make([]Stats, 256)
		for i := range cols {
			cols[i] = randStats(g, 4)
			cols[i].Add(Quantize(g.Normal()))
		}
		var lanes, certified, outside int
		for pi, pr := range priors {
			// The small table puts about half the totals outside it (a
			// total holds ≈ 290 counts).
			ks := []*Kernel{NewKernel(pr, maxN), NewKernel(pr, 290)}
			for call := 0; lanes < 10_000_000*(pi+1)/len(priors); call++ {
				k := ks[call&1]
				np := 1 + call%pairs
				n := 0
				for q := range np {
					buckets := bkt[pairs+q*groups : pairs+(q+1)*groups]
					laneResample(g, buckets, cols)
					bkt[q] = buckets[groups-1]
					totML[q] = k.LogML(bkt[q])
					outside += k.miss(bkt[q])
					// 0…17 lanes, odd and even, per resample.
					live := idx[n : n+int(g.Uint64n(18))]
					laneIndices(g, live)
					for i := range live {
						live[i] += int32(pairs + q*groups)
						tix[n+i] = int32(q)
					}
					n += len(live)
				}
				lanes += n
				certified += checkLanes(t, k, bkt, idx[:n], tix[:n], totML)
			}
		}
		t.Logf("%d lanes, %d certified, %d totals outside the table", lanes, certified, outside)
		if outside == 0 {
			t.Fatal("no total outside the table")
		}

		k := NewKernel(DefaultPrior(), maxN)
		for n := 0; n <= 17; n++ {
			buckets := bkt[:groups]
			laneResample(g, buckets, cols)
			laneIndices(g, idx[:n])
			checkTotal(t, k, buckets, idx[:n], buckets[groups-1])
		}

		// Counts at the table's edges on either side: the left blocks are the
		// lanes, each total a call.
		tabLen := int64(k.TableLen())
		counts := []int64{-1, 0, 1, 2, tabLen - 2, tabLen - 1, tabLen, tabLen + 1}
		var edges []Stats
		for _, n := range counts {
			edges = append(edges, randomStats(g, max(n, 0)))
			edges[len(edges)-1].N = n
		}
		all := make([]int32, len(edges))
		for i := range all {
			all[i] = int32(i)
		}
		var tots []Stats
		for _, n := range append(counts, 3, 100, 1000) {
			tot := randomStats(g, max(n, 0))
			tot.N = n
			tots = append(tots, tot)
			checkTotal(t, k, edges, all, tot)
		}
		// The same edges in one call, every lane against every total: the
		// lanes of a pair of a vector read totals from both ends of the
		// table.
		blocks := append(append([]Stats(nil), tots...), edges...)
		scores := make([]float64, len(blocks))
		for i, s := range tots {
			scores[i] = k.LogML(s)
		}
		var crossL, crossT []int32
		for ti := range tots {
			for li := range edges {
				crossL = append(crossL, int32(len(tots)+li))
				crossT = append(crossT, int32((ti+li)%len(tots)))
			}
		}
		checkLanes(t, k, blocks, crossL, crossT, scores)

		// Σx² near 2⁶³ and negative sums, on both sides.
		huge := []Stats{
			{N: 2, Sum: 0, SumSq: 1<<63 - 1},
			{N: 3, Sum: -(1 << 40), SumSq: 1<<63 - 1<<20},
			{N: 300, Sum: -(1 << 52) - 3, SumSq: 1 << 62},
			{N: 7, Sum: -5, SumSq: 1<<63 - 1<<32 - 1},
			{N: 1, Sum: -(1 << 62), SumSq: 1<<63 - 7},
			{N: 5, Sum: 1<<63 - 1, SumSq: -1 << 63},
		}
		all = all[:len(huge)]
		for i := range all {
			all[i] = int32(i)
		}
		for _, tot := range []Stats{
			{N: 9, Sum: -(1 << 41), SumSq: 1<<63 - 1},
			{N: 400, Sum: -(1 << 53), SumSq: 1<<63 - 1},
			{N: 8, Sum: 1 << 20, SumSq: 1 << 62},
		} {
			checkTotal(t, k, huge, all, tot)
		}

		// δ̃ at ±¾ and ±1½ margins.
		const cells = 2000
		for pi, pr := range []Prior{DefaultPrior(), {Mu0: 2.5, Lambda0: 0.1, Alpha0: 0.1, Beta0: 0.1}, {Mu0: 0, Lambda0: 1, Alpha0: 2, Beta0: 1e-3}} {
			k := NewKernel(pr, 2*cells)
			var l, r Stats
			for i := 0; i < cells; i++ {
				l.Add(Quantize(g.Normal()))
				r.Add(Quantize(g.Normal()))
			}
			for _, m := range []float64{-1.5, -0.75, 0.75, 1.5} {
				below, above, ok := marginEdge(k, l, r, m)
				if !ok {
					t.Fatalf("prior %d: δ̃ never crosses %g margins", pi, m)
				}
				for _, rr := range []Stats{below, above} {
					tot := l.Plus(rr)
					want := 0
					if math.Abs(m) > 1 {
						want = 5
					}
					// Five lanes: two pairs and a lane alone.
					if got := checkTotal(t, k, []Stats{l, tot}, []int32{0, 0, 0, 0, 0}, tot); got != want {
						t.Fatalf("prior %d, δ̃ at %g margins: %d of 5 lanes certified, want %d", pi, m, got, want)
					}
				}
			}
		}
	})
}

// FuzzSplitsImprove: for arbitrary integer triples as the left blocks and
// the totals — in-table counts and not, blocks or not — and any valid
// prior, every lane of SplitsImprove, of every length below 24, is
// SplitImproves' answer on both paths, and its fallbacks and misses are
// checkLanes' counts: with every lane against one total, and with the lanes
// cut into runs of one to four resamples, each run against its own total.
func FuzzSplitsImprove(f *testing.F) {
	f.Add(int64(8), int64(1000), int64(250000), int64(20), int64(-1000), int64(900000), 0.0, 0.1, 0.1, 0.1, uint8(5))
	f.Add(int64(30), int64(30)<<16, int64(30)<<32, int64(60), int64(30)<<16, int64(60)<<32, 0.0, 0.1, 0.1, 0.1, uint8(17))
	f.Add(int64(1), int64(0), int64(0), int64(2), int64(0), int64(0), 2.5, 0.1, 0.1, 1e-300, uint8(4))
	f.Add(int64(127), int64(-5)<<20, int64(1)<<62, int64(128), int64(-7)<<20, int64(1)<<62+1<<61, -1.0, 1e6, 3.0, 0.5, uint8(9))
	f.Add(int64(0), int64(0), int64(0), int64(5000), int64(-123456), int64(98765432), 1.5, 2.0, 3.0, 4.0, uint8(3))
	f.Add(int64(MaxBlockCells), int64(1)<<40, int64(1)<<50, int64(-2), int64(1), int64(1), -1e6, 1e-8, 1e-8, 1e308, uint8(23))
	f.Add(int64(40), int64(3)<<18, int64(5)<<36, int64(90), int64(-1)<<18, int64(7)<<37, 0.0, 0.1, 0.1, 0.1, uint8(24*3+13))
	f.Fuzz(func(t *testing.T, n, sum, sq, tn, tsum, tsq int64, mu0, lambda0, alpha0, beta0 float64, length uint8) {
		pr := Prior{Mu0: mu0, Lambda0: lambda0, Alpha0: alpha0, Beta0: beta0}
		if pr.Validate() != nil {
			pr = DefaultPrior()
		}
		const maxN = 128
		k := NewKernel(pr, maxN)
		fold := func(n int64) int64 { return (n%maxN + maxN) % maxN }
		lefts := []Stats{
			{N: n, Sum: sum, SumSq: sq},
			{N: fold(n), Sum: sum, SumSq: sq},
			{N: fold(n), Sum: sum % (fold(n)<<19 + 1), SumSq: (sq>>1 | 1) % (fold(n)<<38 + 1)},
			{N: fold(n) / 2, Sum: sum >> 3, SumSq: sq >> 5},
			{},
		}
		// Four totals, the last two in and beyond the table whatever tn is.
		tots := []Stats{
			{N: tn, Sum: tsum, SumSq: tsq},
			lefts[0].Plus(lefts[2]),
			{N: fold(tn), Sum: tsum, SumSq: tsq},
			{N: fold(tn) + maxN, Sum: tsum >> 1, SumSq: tsq >> 1},
		}
		bkt := append(append([]Stats(nil), tots...), lefts...)
		totML := make([]float64, len(bkt))
		for i, s := range tots {
			totML[i] = k.LogML(s)
		}
		idx := make([]int32, int(length%24))
		for i := range idx {
			idx[i] = int32(len(tots) + (i*7)%len(lefts))
		}
		// Resample q holds lanes [q·len/np, (q+1)·len/np).
		np := 1 + int(length/24)%4
		tix := make([]int32, len(idx))
		kernel := useKernel
		defer func() { useKernel = kernel }()
		for _, on := range []bool{false, kernel} {
			useKernel = on
			for q := range tots[:3] {
				for i := range tix {
					tix[i] = int32(q)
				}
				checkLanes(t, k, bkt, idx, tix, totML)
			}
			for i := range tix {
				tix[i] = int32((i*np/len(idx) + int(length)) % len(tots))
			}
			checkLanes(t, k, bkt, idx, tix, totML)
		}
	})
}

package score

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"parsimone/internal/dataset"
	"parsimone/internal/quickseed"
)

func TestQuantizeRoundTrip(t *testing.T) {
	for _, x := range []float64{0, 1, -1, 0.5, 3.14159, -7.9} {
		q := Quantize(x)
		if math.Abs(Dequantize(q)-x) > 1.0/ValueScale {
			t.Fatalf("quantize(%v) = %v, error too large", x, Dequantize(q))
		}
	}
}

func TestQuantizeClips(t *testing.T) {
	if Quantize(100) != int64(MaxAbsValue*ValueScale) {
		t.Fatal("positive clip failed")
	}
	if Quantize(-100) != -int64(MaxAbsValue*ValueScale) {
		t.Fatal("negative clip failed")
	}
}

// TestQuantizeFitsInt32: every value Quantize returns lies within
// ±MaxAbsCell, so QData's int32 cells hold it exactly — at the clipping
// bounds ±MaxAbsValue and just inside and past them, for ±Inf, for NaN
// (which maps to 0 on every platform), and for the extremes of float64 —
// and QuantizeData stores each cell as Quantize's value.
func TestQuantizeFitsInt32(t *testing.T) {
	inside := math.Nextafter(MaxAbsValue, 0)
	want := map[float64]int64{
		MaxAbsValue:                    MaxAbsCell,
		-MaxAbsValue:                   -MaxAbsCell,
		math.Nextafter(MaxAbsValue, 9): MaxAbsCell,
		inside:                         int64(math.RoundToEven(inside * ValueScale)),
		math.Inf(1):                    MaxAbsCell,
		math.Inf(-1):                   -MaxAbsCell,
		math.MaxFloat64:                MaxAbsCell,
		-math.MaxFloat64:               -MaxAbsCell,
		math.SmallestNonzeroFloat64:    0,
	}
	for x, w := range want {
		if got := Quantize(x); got != w {
			t.Fatalf("Quantize(%v) = %d, want %d", x, got, w)
		}
	}
	for _, nan := range []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001)} {
		if got := Quantize(nan); got != 0 {
			t.Fatalf("Quantize(NaN %#x) = %d, want 0", math.Float64bits(nan), got)
		}
	}
	check := func(x float64) bool {
		q := Quantize(x)
		return q >= -MaxAbsCell && q <= MaxAbsCell && int64(int32(q)) == q
	}
	if err := quick.Check(check, &quick.Config{Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
	d := dataset.New(1, 4)
	for j, x := range []float64{MaxAbsValue, -MaxAbsValue, 1e300, -0.5} {
		d.Set(0, j, x)
	}
	q := QuantizeData(d)
	for j := range q.M {
		if q.At(0, j) != Quantize(d.At(0, j)) {
			t.Fatalf("cell %d stored as %d, Quantize gives %d", j, q.At(0, j), Quantize(d.At(0, j)))
		}
	}
}

// TestQuantizationEnvelope pins today's quantization envelope at each
// documented bound and one step either side: Quantize clips at
// ±MaxAbsValue and rounds to the 2⁻¹⁶ grid, ties to even; a sampling
// weight, round(exp(s − max)·2^WeightBits) with ties to even, is 0 once
// s − max drops below −(WeightBits+1)·ln 2, where the scaled weight is ½.
// core pins MaxBlockCells.
func TestQuantizationEnvelope(t *testing.T) {
	const step = 1.0 / ValueScale
	for _, c := range []struct {
		what string
		x    float64
		want int64
	}{
		{"one step inside +MaxAbsValue", MaxAbsValue - step, MaxAbsCell - 1},
		{"+MaxAbsValue", MaxAbsValue, MaxAbsCell},
		{"one step past +MaxAbsValue clips", MaxAbsValue + step, MaxAbsCell},
		{"one step inside −MaxAbsValue", -MaxAbsValue + step, -MaxAbsCell + 1},
		{"−MaxAbsValue", -MaxAbsValue, -MaxAbsCell},
		{"one step past −MaxAbsValue clips", -MaxAbsValue - step, -MaxAbsCell},
		{"one grid step", step, 1},
		{"minus one grid step", -step, -1},
		{"two grid steps", 2 * step, 2},
		{"half a step ties to even", step / 2, 0},
		{"just past half a step", math.Nextafter(step/2, 1), 1},
		{"minus half a step ties to even", -step / 2, 0},
		{"just under one and a half steps", math.Nextafter(1.5*step, 0), 1},
		{"one and a half steps tie to even", 1.5 * step, 2},
	} {
		if got := Quantize(c.x); got != c.want {
			t.Errorf("%s: Quantize(%v) = %d, want %d", c.what, c.x, got, c.want)
		}
	}
	floor := -(WeightBits + 1) * math.Ln2
	for _, c := range []struct {
		what string
		d    float64
		want uint64
	}{
		{"one bit above the floor", floor + math.Ln2, 1},
		{"just above the floor", floor + 1e-9, 1},
		{"just below the floor", floor - 1e-9, 0},
		{"one bit below the floor", floor - math.Ln2, 0},
	} {
		if got := QuantizeWeights([]float64{0, c.d})[1]; got != c.want {
			t.Errorf("%s: weight of s − max = %v is %d, want %d", c.what, c.d, got, c.want)
		}
	}
}

// TestQuantizeWeightsSkipBitIdentical: the weights the weight step stores
// without taking the exponential, below zeroWeightBelow, are the weights the
// unskipped expression gives, on both paths. A dense sweep of d = s − max
// over [−23.5, −22.5] crosses both the skip and the floor −33·ln 2.
func TestQuantizeWeightsSkipBitIdentical(t *testing.T) {
	logPaths(t, func(t *testing.T) {
		const steps = 1 << 20
		scores, ws := []float64{0, 0}, make([]uint64, 2)
		for k := 0; k <= steps; k++ {
			d := -23.5 + float64(k)/steps
			for _, d := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, -1)} {
				scores[1] = d
				QuantizeWeightsInto(ws, scores)
				if want := uint64(math.RoundToEven(exp(d) * (1 << WeightBits))); ws[1] != want {
					t.Fatalf("s − max = %v: weight %d, unskipped expression %d", d, ws[1], want)
				}
			}
		}
	})
}

func TestQuantizeMonotone(t *testing.T) {
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Quantize(a) <= Quantize(b)
	}
	if err := quick.Check(check, &quick.Config{Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeData(t *testing.T) {
	d := dataset.New(2, 3)
	d.Set(1, 2, 1.5)
	q := QuantizeData(d)
	if q.N != 2 || q.M != 3 {
		t.Fatalf("shape %dx%d", q.N, q.M)
	}
	if q.At(1, 2) != 3<<(FracBits-1) {
		t.Fatalf("At(1,2) = %d", q.At(1, 2))
	}
	if len(q.Row(1)) != 3 || int64(q.Row(1)[2]) != q.At(1, 2) {
		t.Fatal("Row broken")
	}
}

func TestStatsAddRemoveExact(t *testing.T) {
	// Incremental add/remove must equal from-scratch statistics exactly.
	vals := []int64{Quantize(1.1), Quantize(-2.2), Quantize(0.3), Quantize(5)}
	var s Stats
	for _, v := range vals {
		s.Add(v)
	}
	s.Add(Quantize(7))
	s.Remove(Quantize(7))
	want := StatsOf(vals)
	if s != want {
		t.Fatalf("incremental %+v != recomputed %+v", s, want)
	}
}

func TestStatsMergeUnmergeExact(t *testing.T) {
	a := StatsOf([]int64{1, 2, 3})
	b := StatsOf([]int64{10, 20})
	merged := a
	merged.Merge(b)
	if merged != StatsOf([]int64{1, 2, 3, 10, 20}) {
		t.Fatalf("merge wrong: %+v", merged)
	}
	merged.Unmerge(b)
	if merged != a {
		t.Fatalf("unmerge did not invert merge: %+v", merged)
	}
	if a.Plus(b) != StatsOf([]int64{1, 2, 3, 10, 20}) {
		t.Fatal("Plus wrong")
	}
}

func TestStatsIncrementalEqualsRecomputedProperty(t *testing.T) {
	check := func(raw []int16, removeIdx []uint8) bool {
		var inc Stats
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
			inc.Add(vals[i])
		}
		// Remove a subset (each index at most once).
		removed := map[int]bool{}
		var remaining []int64
		for _, ri := range removeIdx {
			if len(vals) == 0 {
				break
			}
			i := int(ri) % len(vals)
			if !removed[i] {
				removed[i] = true
				inc.Remove(vals[i])
			}
		}
		for i, v := range vals {
			if !removed[i] {
				remaining = append(remaining, v)
			}
		}
		return inc == StatsOf(remaining)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultPriorValid(t *testing.T) {
	if err := DefaultPrior().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPriorValidation(t *testing.T) {
	bad := []Prior{
		{Lambda0: 0, Alpha0: 1, Beta0: 1},
		{Lambda0: 1, Alpha0: -1, Beta0: 1},
		{Lambda0: 1, Alpha0: 1, Beta0: 0},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

func TestLogMLEmptyIsZero(t *testing.T) {
	if got := DefaultPrior().LogML(Stats{}); got != 0 {
		t.Fatalf("empty block scored %v", got)
	}
}

func TestLogMLFinite(t *testing.T) {
	pr := DefaultPrior()
	check := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		ml := pr.LogML(StatsOf(vals))
		return !math.IsNaN(ml) && !math.IsInf(ml, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

// TestLogMLPrefersTightClusters: a block of near-identical values must score
// higher than the same number of widely spread values — the property that
// makes the Gibbs sampler group co-expressed genes.
func TestLogMLPrefersTightClusters(t *testing.T) {
	pr := DefaultPrior()
	tight := Stats{}
	spread := Stats{}
	for i := 0; i < 20; i++ {
		tight.Add(Quantize(1.0 + 0.01*float64(i%3)))
		spread.Add(Quantize(float64(i%7) - 3))
	}
	if pr.LogML(tight) <= pr.LogML(spread) {
		t.Fatalf("tight %v not preferred over spread %v",
			pr.LogML(tight), pr.LogML(spread))
	}
}

// TestLogMLSplitCoherentGroups: splitting a bimodal block into its two modes
// must increase the total score; splitting a homogeneous block must not
// increase it materially. This is the signal behind both observation
// clustering and split assignment.
func TestLogMLSplitCoherentGroups(t *testing.T) {
	pr := DefaultPrior()
	var all, lo, hi Stats
	for i := 0; i < 30; i++ {
		a := Quantize(-2 + 0.05*float64(i%5))
		b := Quantize(2 + 0.05*float64(i%5))
		all.Add(a)
		all.Add(b)
		lo.Add(a)
		hi.Add(b)
	}
	if pr.LogML(lo)+pr.LogML(hi) <= pr.LogML(all) {
		t.Fatal("splitting a bimodal block did not improve the score")
	}

	var uni, uniA, uniB Stats
	for i := 0; i < 60; i++ {
		q := Quantize(1 + 0.02*float64(i%5))
		uni.Add(q)
		if i%2 == 0 {
			uniA.Add(q)
		} else {
			uniB.Add(q)
		}
	}
	if pr.LogML(uniA)+pr.LogML(uniB) > pr.LogML(uni)+1 {
		t.Fatal("splitting a homogeneous block improved the score materially")
	}
}

// TestLogMLScaleInvariantShape: adding more consistent evidence increases
// the per-point fit advantage of the correct grouping.
func TestLogMLMoreEvidenceStrongerPreference(t *testing.T) {
	pr := DefaultPrior()
	advantage := func(n int) float64 {
		var all, lo, hi Stats
		for i := 0; i < n; i++ {
			a, b := Quantize(-2), Quantize(2)
			all.Add(a)
			all.Add(b)
			lo.Add(a)
			hi.Add(b)
		}
		return pr.LogML(lo) + pr.LogML(hi) - pr.LogML(all)
	}
	if advantage(50) <= advantage(5) {
		t.Fatal("advantage of correct split did not grow with evidence")
	}
}

func TestQuantizeWeightsBasic(t *testing.T) {
	ws := QuantizeWeights([]float64{0, math.Log(0.5)})
	if ws[0] != 1<<WeightBits {
		t.Fatalf("max weight = %d, want 2^%d", ws[0], WeightBits)
	}
	if ws[1] != 1<<(WeightBits-1) {
		t.Fatalf("half weight = %d", ws[1])
	}
}

func TestQuantizeWeightsMaxAlwaysPositive(t *testing.T) {
	check := func(scores []float64) bool {
		clean := false
		for _, s := range scores {
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				clean = true
			}
		}
		ws := QuantizeWeights(scores)
		if !clean {
			return true
		}
		var total uint64
		for _, w := range ws {
			total += w
		}
		return total > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeWeightsHandlesDegenerate(t *testing.T) {
	ws := QuantizeWeights([]float64{math.Inf(-1), math.NaN()})
	if ws[0] != 0 || ws[1] != 0 {
		t.Fatalf("degenerate scores got weights %v", ws)
	}
	if ws := QuantizeWeights(nil); len(ws) != 0 {
		t.Fatal("nil input")
	}
}

// TestQuantizeWeightsIntoReusedBuffer: a reused buffer carries nothing over —
// entries the quantizer skips (NaN, −Inf, an all-degenerate vector) must read
// zero, not the previous decision's weight.
func TestQuantizeWeightsIntoReusedBuffer(t *testing.T) {
	buf := []uint64{7, 7, 7, 7}
	for _, scores := range [][]float64{
		{0, math.NaN(), math.Inf(-1), -1},
		{math.Inf(-1), math.NaN(), math.Inf(-1), math.NaN()},
		{-3, 2},
	} {
		got := QuantizeWeightsInto(buf[:len(scores)], scores)
		if want := QuantizeWeights(scores); !reflect.DeepEqual(got, want) {
			t.Fatalf("scores %v: into a used buffer %v, fresh %v", scores, got, want)
		}
	}
}

// TestQuantizeWeightsInfinity is the regression test for the +Inf bug: with
// a +Inf maximum, s−max is NaN for that entry and uint64(NaN) is
// platform-dependent. +Inf must clamp to MaxWeight deterministically, finite
// entries must vanish next to it, and the degenerate inputs stay at zero.
func TestQuantizeWeightsInfinity(t *testing.T) {
	ws := QuantizeWeights([]float64{math.Inf(1), 0, math.NaN(), math.Inf(-1)})
	if ws[0] != MaxWeight {
		t.Fatalf("+Inf weight = %d, want MaxWeight %d", ws[0], MaxWeight)
	}
	if ws[1] != 0 {
		t.Fatalf("finite score next to +Inf got weight %d, want 0", ws[1])
	}
	if ws[2] != 0 || ws[3] != 0 {
		t.Fatalf("NaN/−Inf weights = %v, want 0", ws[2:])
	}
	// Two +Inf entries: both clamp, an equal-weight choice between them.
	ws = QuantizeWeights([]float64{math.Inf(1), math.Inf(1)})
	if ws[0] != MaxWeight || ws[1] != MaxWeight {
		t.Fatalf("double +Inf weights = %v", ws)
	}
	// All-(−Inf): no candidate, all-zero weights.
	ws = QuantizeWeights([]float64{math.Inf(-1), math.Inf(-1)})
	if ws[0] != 0 || ws[1] != 0 {
		t.Fatalf("all-(−Inf) weights = %v, want zeros", ws)
	}
	// The maximum finite score still maps exactly to MaxWeight.
	if ws := QuantizeWeights([]float64{-2, -9}); ws[0] != MaxWeight {
		t.Fatalf("max finite weight = %d, want %d", ws[0], MaxWeight)
	}
}

func TestQuantizeWeightsRelativeOrder(t *testing.T) {
	ws := QuantizeWeights([]float64{-1, -3, -2})
	if !(ws[0] > ws[2] && ws[2] > ws[1]) {
		t.Fatalf("weight order broken: %v", ws)
	}
}

func TestQuantizeProbTable(t *testing.T) {
	cases := []struct {
		name string
		p    float64
		want uint64
	}{
		{"zero", 0, 0},
		{"negative", -0.5, 0},
		{"NaN", math.NaN(), 0},
		{"one clamps to MaxWeight", 1.0, MaxWeight},
		{"above one clamps", 1.5, MaxWeight},
		{"+Inf clamps", math.Inf(1), MaxWeight},
		{"-Inf is zero", math.Inf(-1), 0},
		{"half", 0.5, uint64(1) << (WeightBits - 1)},
		{"typical posterior 1/64", 1.0 / 64, uint64(1) << (WeightBits - 6)},
		{"sub-ULP stays selectable", 1e-300, 1},
		{"smallest positive stays selectable", math.SmallestNonzeroFloat64, 1},
		{"just below grid stays selectable", 1.0 / (1 << (WeightBits + 4)), 1},
	}
	for _, tc := range cases {
		if got := QuantizeProb(tc.p); got != tc.want {
			t.Errorf("%s: QuantizeProb(%v) = %d, want %d", tc.name, tc.p, got, tc.want)
		}
	}
}

// TestQuantizeProbMatchesLegacyGrid pins QuantizeProb to the historic
// round(p·2^32) grid for ordinary posteriors (k/steps with steps ≤ 256), so
// unifying the selection paths on the shared helper changed no learned
// network.
func TestQuantizeProbMatchesLegacyGrid(t *testing.T) {
	for steps := 1; steps <= 256; steps *= 2 {
		for k := 0; k <= steps; k++ {
			p := float64(k) / float64(steps)
			legacy := uint64(math.RoundToEven(p * (1 << 32)))
			if got := QuantizeProb(p); got != legacy {
				t.Fatalf("QuantizeProb(%d/%d) = %d, legacy grid %d", k, steps, got, legacy)
			}
		}
	}
}

func BenchmarkLogML(b *testing.B) {
	pr := DefaultPrior()
	s := StatsOf([]int64{100, 200, 300, -100, 50, 70, 90, 1000})
	b.Run("prior", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr.LogML(s)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		k := NewKernel(pr, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.LogML(s)
		}
	})
}

func BenchmarkStatsAdd(b *testing.B) {
	var s Stats
	for i := 0; i < b.N; i++ {
		s.Add(int64(i))
	}
}

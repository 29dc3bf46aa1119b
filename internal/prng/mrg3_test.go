package prng

import (
	"math"
	"math/big"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"parsimone/internal/quickseed"
)

func TestModulusIsSophieGermainPrime(t *testing.T) {
	m := new(big.Int).SetUint64(Modulus)
	if !m.ProbablyPrime(64) {
		t.Fatalf("modulus %d is not prime", Modulus)
	}
	safe := new(big.Int).SetUint64(2*Modulus + 1)
	if !safe.ProbablyPrime(64) {
		t.Fatalf("2·%d+1 is not prime; modulus is not a Sophie-Germain prime", Modulus)
	}
}

func TestCoefficientsInRange(t *testing.T) {
	for _, a := range []uint64{A1, A2, A3} {
		if a == 0 || a >= Modulus {
			t.Fatalf("coefficient %d out of range (0, %d)", a, Modulus)
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 3 {
		t.Fatalf("seeds 1 and 2 collide on %d of 1000 outputs", same)
	}
}

func TestNextInRange(t *testing.T) {
	g := New(7)
	for i := 0; i < 10000; i++ {
		if v := g.Next(); v >= Modulus {
			t.Fatalf("output %d out of range at step %d", v, i)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	g := New(99)
	for i := 0; i < 17; i++ {
		g.Next()
	}
	s0, s1, s2 := g.State()
	h := NewFromState(s0, s1, s2)
	for i := 0; i < 100; i++ {
		if g.Next() != h.Next() {
			t.Fatalf("restored state diverged at step %d", i)
		}
	}
}

func TestNewFromStatePanics(t *testing.T) {
	cases := [][3]uint64{
		{Modulus, 1, 1},
		{1, Modulus, 1},
		{1, 1, Modulus},
		{0, 0, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFromState(%v) did not panic", c)
				}
			}()
			NewFromState(c[0], c[1], c[2])
		}()
	}
}

func TestClone(t *testing.T) {
	g := New(5)
	g.Next()
	c := g.Clone()
	// Advancing the clone must not affect the original.
	c.Next()
	c.Next()
	g2 := g.Clone()
	if g.Next() != g2.Next() {
		t.Fatal("clone did not preserve state")
	}
}

func TestJumpMatchesIteration(t *testing.T) {
	for _, k := range []uint64{0, 1, 2, 3, 7, 64, 1000, 12345} {
		a := New(11)
		b := New(11)
		a.Jump(k)
		for i := uint64(0); i < k; i++ {
			b.Next()
		}
		for i := 0; i < 50; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("Jump(%d) diverged from %d iterated steps at output %d", k, k, i)
			}
		}
	}
}

func TestJumpComposes(t *testing.T) {
	// Jump(a) then Jump(b) equals Jump(a+b).
	check := func(a, b uint16) bool {
		g1 := New(3)
		g1.Jump(uint64(a))
		g1.Jump(uint64(b))
		g2 := New(3)
		g2.Jump(uint64(a) + uint64(b))
		x, y, z := g1.State()
		p, q, r := g2.State()
		return x == p && y == q && z == r
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestSubstreamMatchesJump(t *testing.T) {
	g := New(21)
	g.Next()
	for _, i := range []uint64{0, 1, 2, 5} {
		s := g.Substream(i)
		j := g.Clone()
		for k := uint64(0); k < i; k++ {
			j.Jump(SubstreamSpacing)
		}
		a0, a1, a2 := s.State()
		b0, b1, b2 := j.State()
		if a0 != b0 || a1 != b1 || a2 != b2 {
			t.Fatalf("Substream(%d) state mismatch", i)
		}
	}
}

// substreamByMatPow is the reference Substream: the jump matrix raised to
// the substream index by binary exponentiation, then applied to the state.
func substreamByMatPow(g *MRG3, i uint64) (s0, s1, s2 uint64) {
	t := matPow(matPow(transition, SubstreamSpacing), i)
	return (t[0]*g.s0 + t[1]*g.s1 + t[2]*g.s2) % Modulus,
		(t[3]*g.s0 + t[4]*g.s1 + t[5]*g.s2) % Modulus,
		(t[6]*g.s0 + t[7]*g.s1 + t[8]*g.s2) % Modulus
}

// TestSubstreamMatchesMatPow: the per-bit jump table lands on the state
// the matrix power does, for every index below 5000 and for random 64-bit
// indices.
func TestSubstreamMatchesMatPow(t *testing.T) {
	g := New(29)
	g.Next()
	idx := []uint64{1<<63 - 1, 1 << 63, ^uint64(0)}
	for r, i := New(31), uint64(0); i < 5000; i++ {
		idx = append(idx, i, r.Uint64())
	}
	for _, i := range idx {
		a0, a1, a2 := g.Substream(i).State()
		b0, b1, b2 := substreamByMatPow(g, i)
		if a0 != b0 || a1 != b1 || a2 != b2 {
			t.Fatalf("Substream(%d) = (%d, %d, %d), matrix power gives (%d, %d, %d)", i, a0, a1, a2, b0, b1, b2)
		}
	}
}

func TestSubstreamLargeIndexNoOverlap(t *testing.T) {
	// Very large substream indices must still produce distinct streams
	// (guards against overflow in the jump computation).
	g := New(8)
	a := g.Substream(1 << 40)
	b := g.Substream(1<<40 + 1)
	same := 0
	for i := 0; i < 200; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent large substreams collide on %d of 200 outputs", same)
	}
}

func TestSubstreamIndependentOfCallerAdvance(t *testing.T) {
	// Substream(i) depends only on the caller's state at call time.
	g1 := New(14)
	s1 := g1.Substream(3)
	g2 := New(14)
	s2 := g2.Substream(3)
	for i := 0; i < 100; i++ {
		if s1.Next() != s2.Next() {
			t.Fatalf("substreams of identical parents diverged at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(13)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	g := New(17)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		f := g.Float64()
		sum += f
		sumsq += f * f
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean %v too far from 0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.005 {
		t.Errorf("variance %v too far from 1/12", variance)
	}
}

func TestUniformityChiSquare(t *testing.T) {
	g := New(23)
	const bins = 64
	const n = 64 * 4000
	var counts [bins]int
	for i := 0; i < n; i++ {
		counts[g.Intn(bins)]++
	}
	expected := float64(n) / bins
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom: mean 63, sd ~11.2. Reject beyond ~5 sd.
	if chi2 > 120 {
		t.Fatalf("chi-square %v too large for uniform hypothesis", chi2)
	}
}

func TestSerialCorrelation(t *testing.T) {
	g := New(29)
	const n = 100000
	prev := g.Float64()
	var sum, sumsq, cross float64
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := g.Float64()
		vals = append(vals, v)
		cross += prev * v
		prev = v
	}
	for _, v := range vals {
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	corr := (cross/n - mean*mean) / variance
	if math.Abs(corr) > 0.02 {
		t.Fatalf("lag-1 serial correlation %v too large", corr)
	}
}

func TestUint64nBounds(t *testing.T) {
	g := New(31)
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := g.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) returned %d", n, v)
			}
		}
	}
}

func TestUint64nOneIsZero(t *testing.T) {
	g := New(1)
	for i := 0; i < 10; i++ {
		if g.Uint64n(1) != 0 {
			t.Fatal("Uint64n(1) must always return 0")
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	g := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			g.Intn(n)
		}()
	}
}

func TestNormalMoments(t *testing.T) {
	g := New(37)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Normal()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance %v too far from 1", variance)
	}
}

func TestJumpClearsNormalCache(t *testing.T) {
	g := New(41)
	g.Normal() // caches the second Box-Muller deviate
	g.Jump(5)
	// A fresh generator at the same stream position has no cache; both must
	// now produce the same deviate, so the jump must have dropped g's cache.
	h := NewFromState(g.State())
	if g.Normal() != h.Normal() {
		t.Fatal("Jump did not clear the cached normal deviate")
	}
}

func TestWeightedIndexDistribution(t *testing.T) {
	g := New(43)
	weights := []uint64{1, 2, 3, 4}
	const n = 100000
	var counts [4]int
	for i := 0; i < n; i++ {
		counts[g.WeightedIndex(weights)]++
	}
	for i, w := range weights {
		want := float64(w) / 10 * n
		got := float64(counts[i])
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("weight %d: got %v picks, want ~%v", w, got, want)
		}
	}
}

func TestWeightedIndexZeroWeightNeverPicked(t *testing.T) {
	g := New(47)
	weights := []uint64{0, 5, 0, 5, 0}
	for i := 0; i < 1000; i++ {
		idx := g.WeightedIndex(weights)
		if idx != 1 && idx != 3 {
			t.Fatalf("picked zero-weight index %d", idx)
		}
	}
}

func TestWeightedIndexAllZero(t *testing.T) {
	g := New(53)
	s0, s1, s2 := g.State()
	if got := g.WeightedIndex([]uint64{0, 0, 0}); got != -1 {
		t.Fatalf("all-zero weights returned %d, want -1", got)
	}
	// Must not consume randomness.
	t0, t1, t2 := g.State()
	if s0 != t0 || s1 != t1 || s2 != t2 {
		t.Fatal("all-zero weighted selection consumed randomness")
	}
}

func TestWeightedIndexSingleElement(t *testing.T) {
	g := New(59)
	for i := 0; i < 10; i++ {
		if got := g.WeightedIndex([]uint64{7}); got != 0 {
			t.Fatalf("single-element selection returned %d", got)
		}
	}
}

// TestFullStreamEquidistribution exercises the generator over a longer run to
// detect short cycles: all 10^6 consecutive outputs must not revisit the
// initial state.
func TestNoShortCycle(t *testing.T) {
	g := New(61)
	i0, i1, i2 := g.State()
	for i := 0; i < 1_000_000; i++ {
		g.Next()
		s0, s1, s2 := g.State()
		if s0 == i0 && s1 == i1 && s2 == i2 {
			t.Fatalf("cycle of length %d detected", i+1)
		}
	}
}

func BenchmarkNext(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkFloat64(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		g.Float64()
	}
}

func BenchmarkJump(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		g.Jump(1 << 40)
	}
}

func BenchmarkSubstream(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		g.Substream(uint64(i))
	}
}

// TestSubstreamsPairwiseDistinct: a set of numbered substreams must be
// pairwise non-overlapping over a practical horizon.
func TestSubstreamsPairwiseDistinct(t *testing.T) {
	g := New(77)
	const streams = 8
	const draw = 500
	seen := make(map[[3]uint64]int)
	for i := 0; i < streams; i++ {
		s := g.Substream(uint64(i))
		for k := 0; k < draw; k++ {
			s.Next()
			a, b, c := s.State()
			key := [3]uint64{a, b, c}
			if prev, dup := seen[key]; dup {
				t.Fatalf("substreams %d and %d share state after ≤%d draws", prev, i, draw)
			}
			seen[key] = i
		}
	}
}

// TestJumpHuge: jump-ahead must handle the largest uint64 arguments without
// overflow artifacts (it reduces through matrix powers, never multiplies
// counts).
func TestJumpHuge(t *testing.T) {
	g := New(5)
	g.Jump(^uint64(0))
	if v := g.Next(); v >= Modulus {
		t.Fatalf("state corrupt after huge jump: %d", v)
	}
}

// TestUniformMatchesIntn: the precomputed sampler must replay Intn's draw
// sequence bit for bit — same values, same raw-output consumption — for
// power-of-two and rejection-path bounds alike.
func TestUniformMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 30, 64, 100, 1 << 20} {
		u := NewUniform(n)
		a, b := New(uint64(n)), New(uint64(n))
		for i := 0; i < 2000; i++ {
			want := a.Intn(n)
			got := u.Draw(b)
			if got != want {
				t.Fatalf("n=%d draw %d: Uniform %d, Intn %d", n, i, got, want)
			}
		}
		sa0, sa1, sa2 := a.State()
		sb0, sb1, sb2 := b.State()
		if sa0 != sb0 || sa1 != sb1 || sa2 != sb2 {
			t.Fatalf("n=%d: generators diverged after identical draws", n)
		}
	}
}

// paths runs fn once per batch-generator implementation present: the
// portable one, and the vector kernel where the CPU has it. The switch is
// package state, so callers must not run in parallel.
func paths(t *testing.T, fn func(t *testing.T)) {
	kernel := useKernel
	t.Cleanup(func() { useKernel = kernel })
	useKernel = false
	t.Run("portable", fn)
	if kernel {
		useKernel = true
		t.Run("kernel", fn)
	}
}

// TestDrawMatchesUint64: every length from 0 to five kernel blocks — whole
// blocks and every partial tail — yields the next Uint64 outputs of the
// stream and the state after them, from ordinary and extreme states, and
// writes nothing past the end of dst.
func TestDrawMatchesUint64(t *testing.T) {
	const sentinel = -12345
	paths(t, func(t *testing.T) {
		for _, g := range []*MRG3{New(3), NewFromState(Modulus-1, Modulus-1, Modulus-1), NewFromState(1, 0, 0)} {
			for n := 0; n <= 5*kernelPicks; n++ {
				buf := make([]int, n+kernelPicks)
				for i := range buf {
					buf[i] = sentinel
				}
				s := [3]uint64{g.s0, g.s1, g.s2}
				drawRaw(&s, buf[:n])
				for i, got := range buf[:n] {
					if want := g.Uint64(); uint64(got) != want {
						t.Fatalf("n=%d output %d: %#x, Uint64 %#x", n, i, got, want)
					}
				}
				for i, v := range buf[n:] {
					if v != sentinel {
						t.Fatalf("n=%d: wrote %#x at dst[%d], past the end", n, v, n+i)
					}
				}
				if s != [3]uint64{g.s0, g.s1, g.s2} {
					t.Fatalf("n=%d: state %v, Uint64 left %v", n, s, [3]uint64{g.s0, g.s1, g.s2})
				}
			}
		}
	})
}

// TestUniformFillMatchesDraw: the batched Fill must produce the exact draw
// sequence of element-wise Draw calls, including ragged batch sizes and
// rejection-path bounds, and leave the generator in the identical state.
// The sizes run one after another on one generator: the empty batch, small
// ones, and 8k±1 around one, two, eight and sixteen kernel blocks. 2^62+1
// rejects one value in four, so its batches come up short and are topped
// up across block edges.
func TestUniformFillMatchesDraw(t *testing.T) {
	sizes := []int{0, 1, 2, 37, 5, 36, 7, 8, 9, 15, 16, 17, 23, 25, 63, 64, 65, 127, 128, 129}
	paths(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 7, 8, 21, 30, 64, 100, 1 << 20, 1<<33 + 3, 1<<62 + 1} {
			u := NewUniform(n)
			a, b := New(uint64(n)+77), New(uint64(n)+77)
			buf := make([]int, slices.Max(sizes))
			for _, size := range sizes {
				dst := buf[:size]
				u.Fill(b, dst)
				for i, got := range dst {
					if want := u.Draw(a); got != want {
						t.Fatalf("n=%d size=%d draw %d: Fill %d, Draw %d", n, size, i, got, want)
					}
				}
				sa0, sa1, sa2 := a.State()
				sb0, sb1, sb2 := b.State()
				if sa0 != sb0 || sa1 != sb1 || sa2 != sb2 {
					t.Fatalf("n=%d size=%d: generators diverged after identical draws", n, size)
				}
			}
		}
	})
}

// FuzzFillMatchesDraw: for any state, bound and size, Fill on either
// implementation yields Draw's values and leaves Draw's state.
func FuzzFillMatchesDraw(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(21), uint16(21))
	f.Add(Modulus-1, Modulus-1, Modulus-1, uint64(1<<62+1), uint16(65))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(32), uint16(7))
	f.Fuzz(func(t *testing.T, s0, s1, s2, n uint64, size uint16) {
		s0, s1, s2 = s0%Modulus, s1%Modulus, s2%Modulus
		if s0 == 0 && s1 == 0 && s2 == 0 {
			s0 = 1
		}
		bound := int(n & math.MaxInt64)
		if bound == 0 {
			bound = 1
		}
		u := NewUniform(bound)
		ref := NewFromState(s0, s1, s2)
		want := make([]int, int(size)%256)
		for i := range want {
			want[i] = u.Draw(ref)
		}
		paths(t, func(t *testing.T) {
			g := NewFromState(s0, s1, s2)
			got := make([]int, len(want))
			u.Fill(g, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d size=%d draw %d: Fill %d, Draw %d", bound, len(want), i, got[i], want[i])
				}
			}
			if g.s0 != ref.s0 || g.s1 != ref.s1 || g.s2 != ref.s2 {
				t.Fatalf("n=%d size=%d: Fill left another state than Draw", bound, len(want))
			}
		})
	})
}

// TestKernelFoldBounds: the vector kernel's reduction (DESIGN §27) relies
// on 2^32 and 2^31 being small modulo Modulus. A three-term sum below
// 3·2^62 folded at bit 32 must land below 2^40, and that folded at bit 31
// below 2·Modulus, so one conditional subtract finishes it.
func TestKernelFoldBounds(t *testing.T) {
	f32, f31 := uint64(1<<32)%Modulus, uint64(1<<31)%Modulus
	if f32 != 210 || f31 != 105 {
		t.Fatalf("2^32, 2^31 mod Modulus = %d, %d; the kernel's comments assume 210, 105", f32, f31)
	}
	if y := (3<<62-1)>>32*f32 + (1<<32 - 1); y >= 1<<40 {
		t.Fatalf("first fold reaches %#x ≥ 2^40", y)
	}
	if z := (1<<40-1)>>31*f31 + (1<<31 - 1); z >= 2*Modulus {
		t.Fatalf("second fold reaches %d ≥ 2·Modulus", z)
	}
}

// TestUniformRemExact: the Barrett remainder must agree with the hardware
// divide for every bound shape — small odd, around 2^32 (the old
// multiply-based remainder stopped at 2^32), one that rejects a quarter of
// all values, the largest int — and adversarial dividends (0, extremes,
// values straddling multiples of n and the rejection threshold).
func TestUniformRemExact(t *testing.T) {
	bounds := []int{3, 5, 7, 15, 30, 100, 12345, (1 << 20) + 7, (1 << 31) + 3, 1<<32 - 5,
		1<<32 + 3, 1<<62 + 1, math.MaxInt64}
	g := New(99)
	for _, n := range bounds {
		u := NewUniform(n)
		if u.pow2 {
			t.Fatalf("n=%d: test bounds must be non-powers-of-two", n)
		}
		if want := math.MaxUint64 - math.MaxUint64%uint64(n); u.limit != want {
			t.Fatalf("n=%d: limit %d, Uint64n's threshold %d", n, u.limit, want)
		}
		vs := []uint64{0, 1, uint64(n) - 1, uint64(n), uint64(n) + 1, 2*uint64(n) - 1,
			u.limit - 1, u.limit, math.MaxUint64, math.MaxUint64 - 1}
		for i := 0; i < 2000; i++ {
			vs = append(vs, g.Uint64())
		}
		for _, v := range vs {
			if got, want := rem(v, u.n, u.m), v%uint64(n); got != want {
				t.Fatalf("n=%d v=%d: rem %d, want %d", n, v, got, want)
			}
		}
	}
}

// BenchmarkUniformFill times the pair-step's shape: a Fill of n picks from
// [0, n), at a non-power-of-two, a multiple of the kernel block and a power
// of two, on each implementation present.
func BenchmarkUniformFill(b *testing.B) {
	kernel := useKernel
	defer func() { useKernel = kernel }()
	for _, impl := range []struct {
		name string
		on   bool
	}{{"portable", false}, {"kernel", true}} {
		if impl.on && !kernel {
			continue
		}
		useKernel = impl.on
		for _, n := range []int{21, 24, 32} {
			b.Run(impl.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				g, u, dst := New(1), NewUniform(n), make([]int, n)
				for i := 0; i < b.N; i++ {
					u.Fill(g, dst)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/draw")
			})
		}
	}
}

// TestNewUniformPanics mirrors Intn's bound validation.
func TestNewUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUniform(0) did not panic")
		}
	}()
	NewUniform(0)
}

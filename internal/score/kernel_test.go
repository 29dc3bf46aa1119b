package score

import (
	"math"
	"testing"
	"unsafe"

	"parsimone/internal/prng"
)

// kernelTestPriors are the priors the differential tests sweep: the default,
// asymmetric shapes, and extreme-but-valid corners (tiny rates, huge scale,
// far-off-center means) where Lgamma/Log are least forgiving.
func kernelTestPriors() []Prior {
	return []Prior{
		DefaultPrior(),
		{Mu0: 1, Lambda0: 1, Alpha0: 1, Beta0: 1},
		{Mu0: -3.5, Lambda0: 0.01, Alpha0: 2.5, Beta0: 7},
		{Mu0: 1e6, Lambda0: 1e-8, Alpha0: 1e-8, Beta0: 1e308},
		{Mu0: -1e6, Lambda0: 1e8, Alpha0: 1e8, Beta0: 1e-308},
		{Mu0: 0, Lambda0: 0.1, Alpha0: 100, Beta0: 1e-3},
	}
}

// randomStats draws a Stats value whose fields are in the fixed-point ranges
// the quantizer produces (|value| ≤ a few·ValueScale per cell).
func randomStats(g *prng.MRG3, n int64) Stats {
	var s Stats
	s.N = n
	for i := int64(0); i < min(n, 64); i++ {
		v := int64(g.Uint64n(8*ValueScale)) - 4*ValueScale
		s.Sum += v
		s.SumSq += v * v
	}
	// Scale up without drawing MaxBlockCells values: counts beyond the
	// sampled cells reuse the accumulated sums, which keeps the fields in a
	// representative (and exactly representable) range.
	if n > 64 {
		s.Sum *= n / 64
		s.SumSq *= n / 64
	}
	return s
}

// TestKernelLogMLBitIdentical is the kernel's differential table test:
// Kernel.LogML must agree with Prior.LogML to the bit over randomized Stats,
// including N=0, counts at the table edge, counts beyond it (fallback), and
// N at MaxBlockCells, for every test prior. A second table of 2²⁰ counts
// adds in-table counts near its top, where the recomputed count-only terms
// λ₀·n and n/2·ln 2π are large and round most coarsely, and checks those
// terms at every count of it against Prior.LogML's expressions, spelled
// here: αN and c3, and βN of a block of equal cells at +MaxAbsValue, whose
// spread is 0 so that βN is β₀ plus the shrinkage term λ₀·n·dm²/(2·λN)
// alone — a score rounds away most one-unit changes of βN, this does not.
func TestKernelLogMLBitIdentical(t *testing.T) {
	g := prng.New(41)
	log2Pi := math.Log(2 * math.Pi)
	for pi, pr := range kernelTestPriors() {
		const maxN, bigN = 4096, 1 << 20
		big := NewKernel(pr, bigN)
		dm := MaxAbsValue - pr.Mu0
		for i := int64(1); i < bigN; i++ {
			n := float64(i)
			wantBeta := pr.Beta0 + pr.Lambda0*n*dm*dm/(2*(pr.Lambda0+n))
			alphaN, c3 := big.counted(i)
			got := [3]float64{alphaN, c3, big.betaN(Stats{N: i, Sum: i * MaxAbsCell, SumSq: i * MaxAbsCell * MaxAbsCell})}
			want := [3]float64{pr.Alpha0 + n/2, float64(n / 2 * log2Pi), wantBeta}
			for j, name := range []string{"αN", "c3", "βN"} {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("prior %d, n = %d: %s = %v, Prior.LogML's expression gives %v", pi, i, name, got[j], want[j])
				}
			}
		}
		for _, c := range []struct {
			k      *Kernel
			counts []int64
		}{
			{NewKernel(pr, maxN), []int64{0, 1, 2, 3, 17, 64, 1000, maxN - 1, maxN, maxN + 1, maxN * 3, MaxBlockCells}},
			{big, []int64{bigN/2 + 1, bigN - 4097, bigN - 1000, bigN - 3, bigN - 2, bigN - 1, bigN, bigN + 1}},
		} {
			for _, n := range c.counts {
				for rep := 0; rep < 20; rep++ {
					s := randomStats(g, n)
					want := pr.LogML(s)
					got := c.k.LogML(s)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("prior %d, table %d, stats %+v: Kernel.LogML = %x (%v), Prior.LogML = %x (%v)",
							pi, c.k.TableLen(), s, math.Float64bits(got), got, math.Float64bits(want), want)
					}
				}
			}
		}
	}
}

// TestKernelEntryLayout pins the table format the amd64 kernels assume
// beyond what go_asm.h tells them: ENTRY reads c1 and c2 with one 16-byte
// load, so an entry is the two words c1, c2 and nothing else.
func TestKernelEntryLayout(t *testing.T) {
	var e kernelEntry
	if size, c1, c2 := unsafe.Sizeof(e), unsafe.Offsetof(e.c1), unsafe.Offsetof(e.c2); size != 16 || c1 != 0 || c2 != 8 {
		t.Fatalf("kernelEntry is %d bytes with c1 at %d and c2 at %d, want 16 bytes at 0 and 8", size, c1, c2)
	}
}

// TestStatsLayout pins the Stats layout the vector kernels read without
// go_asm.h: the batch scoring loads four Stats as 96 bytes, the split kernel
// strides them as 3·8 bytes, and cluster's gather, in another package,
// writes N, Sum and SumSq at bytes 0, 8 and 16.
func TestStatsLayout(t *testing.T) {
	var s Stats
	got := [4]uintptr{unsafe.Sizeof(s), unsafe.Offsetof(s.N), unsafe.Offsetof(s.Sum), unsafe.Offsetof(s.SumSq)}
	if want := [4]uintptr{24, 0, 8, 16}; got != want {
		t.Fatalf("Stats size and N, Sum, SumSq offsets = %v, want %v", got, want)
	}
}

// TestKernelMiss pins what a table miss is: an in-table count and an empty
// block are none, a count past the table or below zero is one, and a miss
// scores Prior.LogML's bits.
func TestKernelMiss(t *testing.T) {
	k := NewKernel(DefaultPrior(), 10)
	if k.TableLen() != 11 {
		t.Fatalf("TableLen = %d, want 11", k.TableLen())
	}
	for _, c := range []struct {
		n    int64
		miss int
	}{{0, 0}, {1, 0}, {5, 0}, {10, 0}, {11, 1}, {100, 1}, {-1, 1}, {-1 << 63, 1}} {
		s := randomStats(prng.New(7), max(c.n, 0))
		s.N = c.n
		if got := k.miss(s); got != c.miss {
			t.Fatalf("miss(N = %d) = %d, want %d", c.n, got, c.miss)
		}
		if c.n != 0 && c.miss == 1 && math.Float64bits(k.LogML(s)) != math.Float64bits(k.prior.LogML(s)) {
			t.Fatalf("N = %d: Kernel.LogML %v, Prior.LogML %v", c.n, k.LogML(s), k.prior.LogML(s))
		}
	}
}

// TestNewKernelClamps pins the constructor's bounds handling: negative maxN
// degenerates to the N=0-only table and oversized requests clamp to
// MaxKernelTableN, with the fallback keeping every call exact.
func TestNewKernelClamps(t *testing.T) {
	if got := NewKernel(DefaultPrior(), -5).TableLen(); got != 1 {
		t.Fatalf("TableLen for negative maxN = %d, want 1", got)
	}
	// Construct-time clamping only; building a MaxKernelTableN-sized table
	// here would dominate the test run, so check the arithmetic instead.
	if MaxKernelTableN != MaxBlockCells {
		t.Fatalf("MaxKernelTableN = %d, want MaxBlockCells = %d", MaxKernelTableN, MaxBlockCells)
	}
}

// FuzzKernelLogML fuzzes the bit-identity over arbitrary Stats fields and
// priors: for any valid prior and any Stats, Kernel.LogML and Prior.LogML
// must return identical bits on both the table and the fallback path.
func FuzzKernelLogML(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), 0.0, 0.1, 0.1, 0.1)
	f.Add(int64(8), int64(1000), int64(250000), 0.0, 0.1, 0.1, 0.1)
	f.Add(int64(5000), int64(-123456), int64(98765432), 1.5, 2.0, 3.0, 4.0)
	f.Add(int64(MaxBlockCells), int64(1)<<40, int64(1)<<50, -1e6, 1e-8, 1e-8, 1e308)
	f.Fuzz(func(t *testing.T, n, sum, sumsq int64, mu0, lambda0, alpha0, beta0 float64) {
		pr := Prior{Mu0: mu0, Lambda0: lambda0, Alpha0: alpha0, Beta0: beta0}
		if pr.Validate() != nil {
			// Sanitize invalid draws into a valid prior rather than skip, so
			// the corpus keeps exercising the comparison.
			pr = DefaultPrior()
		}
		const maxN = 1024
		k := NewKernel(pr, maxN)
		for _, s := range []Stats{
			{N: n, Sum: sum, SumSq: sumsq},
			{N: ((n % maxN) + maxN) % maxN, Sum: sum, SumSq: sumsq},
		} {
			want := pr.LogML(s)
			got := k.LogML(s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stats %+v prior %+v: kernel %x, prior %x",
					s, pr, math.Float64bits(got), math.Float64bits(want))
			}
		}
	})
}

// BenchmarkNewKernel builds a table of 2²⁰ counts, as a rank does for its
// N·M cells, and reports the build time and the table's bytes per count.
func BenchmarkNewKernel(b *testing.B) {
	const counts = 1 << 20
	var k *Kernel
	for i := 0; i < b.N; i++ {
		k = NewKernel(DefaultPrior(), counts-1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/counts, "ns/count")
	b.ReportMetric(float64(uintptr(cap(k.tab))*unsafe.Sizeof(k.tab[0]))/counts, "bytes/count")
}

package score

import (
	"math"
	"testing"

	"parsimone/internal/prng"
)

// logPaths runs f once per implementation of the score's kernels this
// platform has: the AVX2 kernels (where the CPU has them) and the portable
// loops, restoring the choice afterwards.
func logPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	kernel := useKernel
	t.Cleanup(func() { useKernel = kernel })
	paths := []bool{false}
	if kernel {
		paths = append(paths, true)
	}
	for _, on := range paths {
		useKernel = on
		name := "portable"
		if on {
			name = "kernel"
		}
		t.Run(name, f)
	}
}

// TestLogMatchesMath: LOG4, the lane copy of math.Log's amd64 code that the
// fused block scoring includes, agrees with math.Log at the edges of its
// range, seen through LogMLBatch on both paths. Blocks of
// zeros under a prior with μ₀ = 0 have βN = β₀ exactly, so β₀ at the
// special values and at the f1 = √2/2 boundary of the range reduction, at
// every exponent, reaches the logarithm unchanged; a prior with μ₀ = ±10³⁰⁰
// or NaN gives βN = +Inf or NaN beside finite count-only terms. Zero and
// negative βN cannot occur beside finite terms (βN ≥ β₀ > 0). The sweeps of
// TestLogMLBatchMatchesLogML cover the logarithm on the inputs scoring
// gives it.
func TestLogMatchesMath(t *testing.T) {
	var priors []Prior
	betas := []float64{math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, math.MaxFloat64,
		1, 2, 0.5, math.E, 1 - 0x1p-53, 1 + 0x1p-52}
	for e := -1074; e <= 1023; e++ {
		for _, f := range []float64{math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1)} {
			if x := math.Ldexp(f, e); x > 0 {
				betas = append(betas, x)
			}
		}
	}
	for _, b := range betas {
		priors = append(priors, Prior{Mu0: 0, Lambda0: 1, Alpha0: 0.5, Beta0: b})
	}
	for _, mu := range []float64{1e300, -1e300, math.NaN()} {
		priors = append(priors, Prior{Mu0: mu, Lambda0: 1, Alpha0: 0.5, Beta0: 1})
	}
	zeros := make([]Stats, 7)
	for i := range zeros {
		zeros[i] = Stats{N: int64(i + 1)}
	}
	logPaths(t, func(t *testing.T) {
		dst := make([]float64, len(zeros))
		for _, pr := range priors {
			k := NewKernel(pr, len(zeros))
			k.LogMLBatch(dst, zeros)
			for i, s := range zeros {
				if want := k.LogML(s); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("prior %+v, %d zeros: batch %v (%#x), LogML %v (%#x)",
						pr, s.N, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
				}
			}
		}
	})
}

// TestLogMLBatchMatchesLogML: Kernel.LogMLBatch is Kernel.LogML element by
// element, bit for bit, on both paths — over every test prior, batches of
// every length 0…17 mixing empty blocks, in-table counts and counts past the
// table (where Kernel.LogML is also checked against Prior.LogML), and 10⁷ blocks of the kinds sweepStats
// draws — and writes nothing past len(stats).
func TestLogMLBatchMatchesLogML(t *testing.T) {
	logPaths(t, func(t *testing.T) {
		g := prng.New(43)
		const maxN = 512
		counts := []int64{0, 1, 2, 3, 17, 64, 300, maxN - 1, maxN, maxN + 1, 4 * maxN}
		for pi, pr := range kernelTestPriors() {
			k := NewKernel(pr, maxN)
			for n := 0; n <= 17; n++ {
				for rep := 0; rep < 8; rep++ {
					stats := make([]Stats, n)
					for i := range stats {
						stats[i] = randomStats(g, counts[g.Intn(len(counts))])
					}
					dst := make([]float64, n+4)
					for i := range dst {
						dst[i] = -1.5
					}
					k.LogMLBatch(dst[:n], stats)
					for i, s := range stats {
						want := k.LogML(s)
						if math.Float64bits(dst[i]) != math.Float64bits(want) {
							t.Fatalf("prior %d, stats %+v: batch %x, LogML %x", pi, s, math.Float64bits(dst[i]), math.Float64bits(want))
						}
						if ref := pr.LogML(s); math.Float64bits(want) != math.Float64bits(ref) {
							t.Fatalf("prior %d, stats %+v: Kernel.LogML %x, Prior.LogML %x", pi, s, math.Float64bits(want), math.Float64bits(ref))
						}
					}
					for i := n; i < len(dst); i++ {
						if dst[i] != -1.5 {
							t.Fatalf("prior %d, length %d: element %d past the batch overwritten", pi, n, i)
						}
					}
				}
			}
		}
		// The sweep, in batches of an attach-var decision's 557 blocks.
		stats := make([]Stats, 557)
		dst := make([]float64, len(stats))
		k := NewKernel(DefaultPrior(), 480*32)
		for done := 0; done < 10_000_000; done += len(stats) {
			kind := done / len(stats) % 5
			for i := range stats {
				stats[i] = sweepStats(g, kind, k.TableLen())
			}
			k.LogMLBatch(dst, stats)
			for i, s := range stats {
				if want := k.LogML(s); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("kind %d, stats %+v: batch %x, LogML %x", kind, s, math.Float64bits(dst[i]), math.Float64bits(want))
				}
			}
		}
	})
}

// sweepStats draws one block of the given kind for a kernel of tabLen
// counts: 0, in-table counts with the sums of cells within ±MaxAbsCell;
// 1, arbitrary 64-bit sums and counts around and past both ends of the
// table; 2, sums within 2¹⁶ of ±2⁵¹, the edge of the magic conversion;
// 3, tiny blocks with sums of the same sign as their mean, the βN of tight
// blocks; 4, any of the others, so that a vector mixes them.
func sweepStats(g *prng.MRG3, kind, tabLen int) Stats {
	if kind == 4 {
		kind = g.Intn(4)
	}
	switch kind {
	case 0:
		n := 1 + int64(g.Intn(tabLen-1))
		sum := int64(g.Uint64n(uint64(2*n*MaxAbsCell+1))) - n*MaxAbsCell
		sq := int64(g.Uint64n(uint64(n) * MaxAbsCell * MaxAbsCell))
		return Stats{N: n, Sum: sum, SumSq: max(sq, sum/n*sum)}
	case 1:
		return Stats{N: int64(g.Intn(tabLen+8)) - 4, Sum: int64(g.Uint64()), SumSq: int64(g.Uint64())}
	case 2:
		edge := func() int64 {
			return (1<<51 + int64(g.Uint64n(1<<17)) - 1<<16) * int64(1-2*g.Intn(2))
		}
		return Stats{N: 1 + int64(g.Intn(tabLen-1)), Sum: edge(), SumSq: edge()}
	default:
		n := 1 + int64(g.Intn(4))
		v := int64(g.Uint64n(2*MaxAbsCell)) - MaxAbsCell
		return Stats{N: n, Sum: n * v, SumSq: n * v * v}
	}
}

// FuzzKernelLogMLBatch: a batch built from arbitrary statistics and priors
// — the fuzzed block, its count folded into the table and past it, and
// blocks of every count below 8 — scores each element bit-equal to
// Kernel.LogML on both logarithm paths.
func FuzzKernelLogMLBatch(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), 0.0, 0.1, 0.1, 0.1, uint8(5))
	f.Add(int64(8), int64(1000), int64(250000), 0.0, 0.1, 0.1, 0.1, uint8(17))
	f.Add(int64(5000), int64(-123456), int64(98765432), 1.5, 2.0, 3.0, 4.0, uint8(3))
	f.Add(int64(MaxBlockCells), int64(1)<<40, int64(1)<<50, -1e6, 1e-8, 1e-8, 1e308, uint8(9))
	f.Fuzz(func(t *testing.T, n, sum, sumsq int64, mu0, lambda0, alpha0, beta0 float64, length uint8) {
		pr := Prior{Mu0: mu0, Lambda0: lambda0, Alpha0: alpha0, Beta0: beta0}
		if pr.Validate() != nil {
			pr = DefaultPrior()
		}
		const maxN = 1024
		k := NewKernel(pr, maxN)
		stats := make([]Stats, int(length%32))
		for i := range stats {
			switch i % 3 {
			case 0:
				stats[i] = Stats{N: n, Sum: sum, SumSq: sumsq}
			case 1:
				stats[i] = Stats{N: ((n % maxN) + maxN) % maxN, Sum: sum, SumSq: sumsq}
			default:
				stats[i] = Stats{N: int64(i % 8), Sum: sum >> (i % 5), SumSq: sumsq >> (i % 7)}
			}
		}
		kernel := useKernel
		defer func() { useKernel = kernel }()
		for _, on := range []bool{false, kernel} {
			useKernel = on
			got := make([]float64, len(stats))
			k.LogMLBatch(got, stats)
			for i, s := range stats {
				if want := k.LogML(s); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("kernel path %v, stats %+v prior %+v: batch %x, LogML %x",
						on, s, pr, math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		}
	})
}

// BenchmarkLogMLBatch is the block scoring's layer witness: ns per block
// (ns/block) on each path, over one attach-var decision's worth of blocks
// at the benchmark's `cluster` shape (about 570 blocks of a few dozen
// cells each).
func BenchmarkLogMLBatch(b *testing.B) {
	kernel := useKernel
	b.Cleanup(func() { useKernel = kernel })
	g := prng.New(6)
	k := NewKernel(DefaultPrior(), 480*32)
	stats := make([]Stats, 570)
	for i := range stats {
		stats[i] = randomStats(g, int64(6+g.Intn(60)))
	}
	out := make([]float64, len(stats))
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
			useKernel = on
			for range b.N {
				k.LogMLBatch(out, stats)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stats)), "ns/block")
		})
	}
}

package score

import (
	"math"
	"testing"

	"parsimone/internal/prng"
)

// logPaths runs f once per implementation of the batched logarithm this
// platform has: the AVX2 kernel (where the CPU has one) and the portable
// loop, restoring the choice afterwards.
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

// logInputs fills xs with the inputs TestLogMatchesMath sweeps, by kind:
// uniformly random non-negative bit patterns (subnormals, +Inf and NaN
// included), values within 2^-20 of 1, βN-like values over [0.1, 10^5), and
// random bit patterns of either sign.
func logInputs(g *prng.MRG3, xs []float64, kind int) {
	for i := range xs {
		switch kind {
		case 0:
			xs[i] = math.Float64frombits(g.Uint64() >> 1)
		case 1:
			xs[i] = 1 + (g.Float64()-0.5)*0x1p-19
		case 2:
			xs[i] = 0.1 * math.Pow(10, 6*g.Float64())
		default:
			xs[i] = math.Float64frombits(g.Uint64())
		}
	}
}

// TestLogMatchesMath: the batched logarithm is math.Log bit for bit on both
// paths — over 10^7 inputs of every kind logInputs draws, the special
// values, and the f1 = √2/2 boundary of math.Log's range reduction at every
// exponent — and a batch of any length 0…17 writes exactly its own
// elements, in place or not.
func TestLogMatchesMath(t *testing.T) {
	logPaths(t, func(t *testing.T) {
		g := prng.New(71)
		const batch = 1 << 12
		src, dst := make([]float64, batch), make([]float64, batch)
		check := func(src []float64) {
			t.Helper()
			logs(dst, src)
			for i, x := range src {
				if want := math.Log(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("log(%v = %#x) = %v (%#x), math.Log = %v (%#x)",
						x, math.Float64bits(x), dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
				}
			}
		}
		special := []float64{0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(),
			-math.NaN(), math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, math.MaxFloat64,
			1, 2, 0.5, math.E, 1 - 0x1p-53, 1 + 0x1p-52, math.Float64frombits(0x7FF0000000000001)}
		for e := -1074; e <= 1023; e++ {
			for _, f := range []float64{math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1)} {
				special = append(special, math.Ldexp(f, e))
			}
		}
		for lo := 0; lo < len(special); lo += batch {
			check(special[lo:min(lo+batch, len(special))])
		}
		for n := 0; n < 10_000_000; n += batch {
			logInputs(g, src, n/batch%4)
			check(src)
		}

		for n := 0; n <= 17; n++ {
			const sentinel = -12345.5
			buf := make([]float64, n+8)
			in := make([]float64, n+8)
			for i := range buf {
				buf[i], in[i] = sentinel, sentinel
			}
			logInputs(g, in[:n], 2)
			want := make([]float64, n)
			for i := range want {
				want[i] = math.Log(in[i])
			}
			logs(buf[:n], in[:n])
			logs(in[:n], in[:n])
			for i := range n + 8 {
				w := sentinel
				if i < n {
					w = want[i]
				}
				if buf[i] != w || in[i] != w {
					t.Fatalf("length %d: element %d is %v out of place and %v in place, want %v", n, i, buf[i], in[i], w)
				}
			}
		}
	})
}

// TestLogMLBatchMatchesLogML: Kernel.LogMLBatch is Kernel.LogML element by
// element, bit for bit, on both logarithm paths — over every test prior,
// batches of every length 0…17 mixing empty blocks, in-table counts and
// counts past the table (whose fallbacks it counts like LogML) — and
// writes nothing past len(stats).
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
					var wantFallbacks int64
					for i := range stats {
						stats[i] = randomStats(g, counts[g.Intn(len(counts))])
						if stats[i].N > maxN {
							wantFallbacks++
						}
					}
					dst := make([]float64, n+4)
					for i := range dst {
						dst[i] = -1.5
					}
					before := k.Fallbacks()
					k.LogMLBatch(dst[:n], stats)
					if got := k.Fallbacks() - before; got != wantFallbacks {
						t.Fatalf("prior %d: batch counted %d fallbacks, want %d", pi, got, wantFallbacks)
					}
					for i, s := range stats {
						if want := k.LogML(s); math.Float64bits(dst[i]) != math.Float64bits(want) {
							t.Fatalf("prior %d, stats %+v: batch %x, LogML %x", pi, s, math.Float64bits(dst[i]), math.Float64bits(want))
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
	})
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

// BenchmarkLogBatch is the batched logarithm's layer witness: ns per
// logarithm (ns/log) over βN-like values, on each path, in batches of 64 —
// a decision's worth of blocks.
func BenchmarkLogBatch(b *testing.B) {
	kernel := useKernel
	b.Cleanup(func() { useKernel = kernel })
	xs := make([]float64, 64)
	logInputs(prng.New(5), xs, 2)
	out := make([]float64, len(xs))
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
				logs(out, xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/log")
		})
	}
}

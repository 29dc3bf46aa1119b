package score

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"parsimone/internal/cpu"
	"parsimone/internal/prng"
)

// TestExpMatchesMathExp: exp is math/exp_amd64.s's FMA branch, so on an
// amd64 CPU with FMA it equals math.Exp bit for bit — on 2·10⁷ inputs
// spread over [−23, 0], the weight step's exponents, and 10⁶ over the
// domain [−708, 708], its edges included. Elsewhere math.Exp is another
// spelling (the non-FMA branch, or another GOARCH's code) and the test is
// skipped: exp is the engine's one exponential there too.
func TestExpMatchesMathExp(t *testing.T) {
	if runtime.GOARCH != "amd64" || !cpu.FMA {
		t.Skip("math.Exp does not run its FMA branch on this host")
	}
	same := func(x float64) {
		if got, want := exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const n = 20_000_000
	for i := 0; i <= n; i++ {
		same(zeroWeightBelow * float64(i) / n)
	}
	for i := 0; i <= 1_000_000; i++ {
		same(-708 + 1416*float64(i)/1_000_000)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -0x1p-1074, 0x1p-1074, 0.5 * math.Ln2, -0.5 * math.Ln2,
		zeroWeightBelow, -(WeightBits + 1) * math.Ln2, -708, 708} {
		for _, x := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))} {
			same(x)
		}
	}
}

// TestWeightKernelMatchesPortable: the weight kernel stores the portable
// loop's weights, bit for bit, over more than 10⁷ scores in vectors of 1 to
// 140, and at the edges: NaN, ±Inf, all −Inf, ±0, ties at the maximum,
// d = s − max at zeroWeightBelow and its neighbouring floats and at the
// floor −33·ln 2 ± a few ulps, every length 0 … 17, and the entries past
// len(ws) of a longer buffer, which neither path may write.
func TestWeightKernelMatchesPortable(t *testing.T) {
	if !useKernel || !weightKernel {
		t.Skip("no weight kernel on this platform")
	}
	g := prng.New(31)
	kbuf, pbuf := make([]uint64, 160), make([]uint64, 160)
	same := func(what string, s []float64) {
		t.Helper()
		for i := range kbuf {
			kbuf[i], pbuf[i] = 0xdeadbeef, 0xdeadbeef
		}
		kw := QuantizeWeightsInto(kbuf[:len(s)], s)
		pw := quantizeWeights(pbuf[:len(s)], s)
		if !slices.Equal(kw, pw) {
			for i := range s {
				if kw[i] != pw[i] {
					t.Fatalf("%s: score %d of %d (%v, d = %v): kernel %d, portable %d", what, i, len(s), s[i], s[i]-slices.Max(s), kw[i], pw[i])
				}
			}
		}
		for i := len(s); i < len(kbuf); i++ {
			if kbuf[i] != 0xdeadbeef {
				t.Fatalf("%s: the kernel wrote entry %d past the %d weights", what, i, len(s))
			}
		}
	}
	floor := -(WeightBits + 1) * math.Ln2
	var edges []float64
	for _, d := range []float64{zeroWeightBelow, floor} {
		x := d
		for range 4 {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for range 9 {
			edges = append(edges, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	// pick draws one score: a plain one, a special value, or an edge, at an
	// offset from a maximum of 0 or 5.
	pick := func(max float64) float64 {
		switch r := g.Intn(64); {
		case r < 2:
			return special[g.Intn(len(special))]
		case r < 4:
			return max
		case r < 12:
			return max + edges[g.Intn(len(edges))]
		default:
			return max - 40*g.Float64()
		}
	}
	scores := make([]float64, 140)
	for done := 0; done < 10_000_000; {
		s := scores[:1+g.Intn(len(scores))]
		max := float64(5 * g.Intn(2))
		for i := range s {
			s[i] = pick(max)
		}
		s[g.Intn(len(s))] = max
		same("sweep", s)
		done += len(s)
	}
	for n := 0; n <= 17; n++ {
		s := scores[:n]
		for range 200 {
			for i := range s {
				s[i] = pick(0)
			}
			same(fmt.Sprintf("length %d", n), s)
		}
		for _, v := range special {
			for i := range s {
				s[i] = v
			}
			same(fmt.Sprintf("length %d, all %v", n, v), s)
		}
		for i := range s {
			s[i] = -1 - float64(i%3)
		}
		same(fmt.Sprintf("length %d, ties", n), s)
	}
}

// BenchmarkQuantizeWeights is the weight step's layer witness: ns per
// weight (ns/weight) on each path, over decisions of 94 candidates (the
// benchmark's `cluster` attach-var width) and of 7 (its obs decisions)
// whose gains spread over [−40, 0] below the best, so that about two
// fifths of them skip the exponential.
func BenchmarkQuantizeWeights(b *testing.B) {
	kernel := useKernel
	b.Cleanup(func() { useKernel = kernel })
	g := prng.New(8)
	paths := []bool{false}
	if kernel && weightKernel {
		paths = append(paths, true)
	}
	for _, n := range []int{7, 94} {
		s := make([]float64, n)
		for i := range s {
			s[i] = -40 * g.Float64()
		}
		s[g.Intn(n)] = 0
		ws := make([]uint64, n)
		for _, on := range paths {
			name := "portable"
			if on {
				name = "kernel"
			}
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				useKernel = on
				for range b.N {
					QuantizeWeightsInto(ws, s)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/weight")
			})
		}
	}
}

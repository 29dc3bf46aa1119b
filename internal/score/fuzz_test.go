package score

import (
	"math"
	"slices"
	"testing"
)

// FuzzQuantizeProb checks the invariants every split-selection path depends
// on: no panic for any float64 (NaN, ±Inf, subnormals), weights stay on the
// [0, MaxWeight] grid, positive probabilities stay selectable, non-positive
// and NaN map to zero, and the mapping is monotone — so quantization never
// reorders candidates relative to their probabilities.
func FuzzQuantizeProb(f *testing.F) {
	seeds := []float64{0, 1, 0.5, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 1 - 0x1p-53, 1 + 0x1p-52, math.MaxFloat64}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b float64) {
		wa, wb := QuantizeProb(a), QuantizeProb(b)
		for _, c := range []struct {
			p float64
			w uint64
		}{{a, wa}, {b, wb}} {
			if c.w > MaxWeight {
				t.Fatalf("QuantizeProb(%g) = %d exceeds MaxWeight", c.p, c.w)
			}
			if math.IsNaN(c.p) || c.p <= 0 {
				if c.w != 0 {
					t.Fatalf("QuantizeProb(%g) = %d, want 0", c.p, c.w)
				}
			} else if c.w == 0 {
				t.Fatalf("QuantizeProb(%g) = 0: positive probability must stay selectable", c.p)
			}
			if c.p >= 1 && c.w != MaxWeight {
				t.Fatalf("QuantizeProb(%g) = %d, want MaxWeight clamp", c.p, c.w)
			}
			if c.w != QuantizeProb(c.p) {
				t.Fatalf("QuantizeProb(%g) is not deterministic", c.p)
			}
		}
		if !math.IsNaN(a) && !math.IsNaN(b) && a <= b && wa > wb {
			t.Fatalf("QuantizeProb not monotone: Q(%g)=%d > Q(%g)=%d", a, wa, b, wb)
		}
	})
}

// FuzzQuantizeWeights checks the log-score weighting the collective
// sampling consumes: no panic on any inputs, weights on [0, MaxWeight],
// NaN/−Inf scores unselectable, a selection always possible when any score
// is non-NaN and above −Inf, and within-vector monotonicity — a higher
// score never receives a lower weight, which is what makes the quantized
// argmax/sampling agree with the real score order. The weights are the
// portable loop's bit for bit on the weight kernel's path (DESIGN §31).
func FuzzQuantizeWeights(f *testing.F) {
	f.Add(0.0, 0.0, 0.0)
	f.Add(1.5, -3.25, 700.0)
	f.Add(math.Inf(1), math.NaN(), math.Inf(-1))
	f.Add(math.SmallestNonzeroFloat64, -math.MaxFloat64, 0x1p-1040)
	f.Add(-745.0, -744.0, 710.0)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		s := []float64{a, b, c}
		ws := QuantizeWeights(s)
		if len(ws) != len(s) {
			t.Fatalf("got %d weights for %d scores", len(ws), len(s))
		}
		anySelectable := false
		for i, w := range ws {
			if w > MaxWeight {
				t.Fatalf("weight %d of score %g exceeds MaxWeight", w, s[i])
			}
			if (math.IsNaN(s[i]) || math.IsInf(s[i], -1)) && w != 0 {
				t.Fatalf("score %g got weight %d, want 0", s[i], w)
			}
			anySelectable = anySelectable || w > 0
		}
		maxs := math.Inf(-1)
		for _, v := range s {
			if !math.IsNaN(v) && v > maxs {
				maxs = v
			}
		}
		if !math.IsInf(maxs, -1) && !anySelectable {
			t.Fatalf("scores %v have a maximum %g but no positive weight", s, maxs)
		}
		for i := range s {
			for j := range s {
				if math.IsNaN(s[i]) || math.IsNaN(s[j]) {
					continue
				}
				if s[i] <= s[j] && ws[i] > ws[j] {
					t.Fatalf("not monotone: score %g → %d but score %g → %d",
						s[i], ws[i], s[j], ws[j])
				}
			}
		}
		again := QuantizeWeights(s)
		for i := range ws {
			if ws[i] != again[i] {
				t.Fatalf("QuantizeWeights not deterministic at %d", i)
			}
		}
		// Seven scores put the kernel through a full group and a partial one.
		for _, s := range [][]float64{s, {a, b, c, a - 23, b + c, c, math.Nextafter(a, b)}} {
			ws := QuantizeWeights(s)
			if portable := quantizeWeights(make([]uint64, len(s)), s); !slices.Equal(ws, portable) {
				t.Fatalf("scores %v: weights %v, portable loop %v", s, ws, portable)
			}
		}
	})
}

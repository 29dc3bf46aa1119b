package score

import (
	"math"
	"testing"

	"parsimone/internal/prng"
)

// randStats draws a plausible sufficient-statistics triple: quantized
// values on the ValueScale grid, counts in the split-bootstrap range.
func randStats(g *prng.MRG3, maxN int) Stats {
	var s Stats
	n := g.Intn(maxN + 1)
	for i := 0; i < n; i++ {
		v := int64(g.Intn(8*ValueScale)) - 4*ValueScale
		s.Add(v)
	}
	return s
}

// TestMemoLogMLBitIdentical: every memo answer — first sight, cache hit,
// collision overwrite — must be bit-equal to Kernel.LogML, which is
// bit-equal to Prior.LogML.
func TestMemoLogMLBitIdentical(t *testing.T) {
	pr := DefaultPrior()
	kern := NewKernel(pr, 4096)
	// A tiny cache forces collisions and overwrites.
	m := NewMemo(kern, 8)
	g := prng.New(41)
	stats := make([]Stats, 400)
	for i := range stats {
		stats[i] = randStats(g, 64)
	}
	// Two sweeps: the second re-queries every triple, hitting a mix of
	// cached and evicted slots.
	for sweep := 0; sweep < 2; sweep++ {
		for _, s := range stats {
			got := m.LogML(s)
			want := kern.LogML(s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sweep %d stats %+v: memo %v, kernel %v", sweep, s, got, want)
			}
			if w2 := pr.LogML(s); s.N > 0 && math.Float64bits(got) != math.Float64bits(w2) {
				t.Fatalf("stats %+v: memo %v, prior %v", s, got, w2)
			}
		}
	}
}

// TestMemoCounters pins the counter semantics: zero for empty blocks, one
// miss then hits for a repeated triple, and hits + misses + zero equal to
// the number of calls.
func TestMemoCounters(t *testing.T) {
	kern := NewKernel(DefaultPrior(), 64)
	m := NewMemo(kern, 16)
	if m.LogML(Stats{}) != 0 {
		t.Fatal("empty block did not score 0")
	}
	if m.Zero() != 1 || m.Hits() != 0 || m.Misses() != 0 {
		t.Fatalf("after empty block: zero=%d hits=%d misses=%d", m.Zero(), m.Hits(), m.Misses())
	}
	var s Stats
	s.Add(3 * ValueScale)
	s.Add(-ValueScale)
	m.LogML(s)
	if m.Misses() != 1 || m.Hits() != 0 {
		t.Fatalf("first sight: hits=%d misses=%d", m.Hits(), m.Misses())
	}
	for i := 0; i < 5; i++ {
		m.LogML(s)
	}
	if m.Misses() != 1 || m.Hits() != 5 {
		t.Fatalf("repeats: hits=%d misses=%d", m.Hits(), m.Misses())
	}
	if total := m.Hits() + m.Misses() + m.Zero(); total != 7 {
		t.Fatalf("counter total %d, want 7", total)
	}
}

// TestNewMemoSizing: power-of-two rounding and the ≤0 default.
func TestNewMemoSizing(t *testing.T) {
	kern := NewKernel(DefaultPrior(), 0)
	for _, tc := range []struct{ in, want int }{
		{0, DefaultMemoSlots}, {-5, DefaultMemoSlots}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024},
	} {
		if got := NewMemo(kern, tc.in).Slots(); got != tc.want {
			t.Errorf("NewMemo(%d): %d slots, want %d", tc.in, got, tc.want)
		}
	}
}

// FuzzMemoLogML: for arbitrary exact triples, the memo must stay bit-equal
// to the kernel on both a cold and a warm query.
func FuzzMemoLogML(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0))
	f.Add(int64(1), int64(ValueScale), int64(ValueScale)*int64(ValueScale))
	f.Add(int64(30), int64(-7)*ValueScale, int64(1<<40))
	kern := NewKernel(DefaultPrior(), 1024)
	m := NewMemo(kern, 64)
	f.Fuzz(func(t *testing.T, n, sum, sumsq int64) {
		s := Stats{N: n, Sum: sum, SumSq: sumsq}
		want := kern.LogML(s)
		for i := 0; i < 2; i++ {
			got := m.LogML(s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %d of %+v: memo %v, kernel %v", i, s, got, want)
			}
		}
	})
}

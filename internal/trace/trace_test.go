package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"parsimone/internal/quickseed"
)

func TestTimersAccumulate(t *testing.T) {
	tm := NewTimers()
	tm.Add("a", time.Second)
	tm.Add("b", 2*time.Second)
	tm.Add("a", time.Second)
	if got := tm.Get("a"); got != 2*time.Second {
		t.Fatalf("a = %v", got)
	}
	if got := tm.Total(); got != 4*time.Second {
		t.Fatalf("total = %v", got)
	}
	names := tm.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestTimersTime(t *testing.T) {
	tm := NewTimers()
	tm.Time("sleep", func() { time.Sleep(10 * time.Millisecond) })
	if tm.Get("sleep") < 5*time.Millisecond {
		t.Fatalf("timer did not measure: %v", tm.Get("sleep"))
	}
}

func TestTimersString(t *testing.T) {
	tm := NewTimers()
	tm.Add("x", time.Second)
	if tm.String() != "x=1s" {
		t.Fatalf("got %q", tm.String())
	}
}

func TestImbalanceBalanced(t *testing.T) {
	if got := Imbalance([]float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("balanced imbalance = %v", got)
	}
}

func TestImbalanceKnownValue(t *testing.T) {
	// max=6, avg=3 → (6−3)/3 = 1.
	if got := Imbalance([]float64{6, 2, 2, 2}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("got %v, want 1", got)
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	if Imbalance(nil) != 0 {
		t.Fatal("nil input")
	}
	if Imbalance([]float64{0, 0}) != 0 {
		t.Fatal("zero total")
	}
	if Imbalance([]float64{5}) != 0 {
		t.Fatal("single rank must be balanced")
	}
}

func TestImbalanceNonNegative(t *testing.T) {
	check := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		return Imbalance(xs) >= 0
	}
	if err := quick.Check(check, &quick.Config{Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func buildPhase(costs []float64, segs []int) *Phase {
	ph := &Phase{Name: "test"}
	for i, c := range costs {
		seg := 0
		if segs != nil {
			seg = segs[i]
		}
		ph.Items = append(ph.Items, Item{Cost: c, Seg: seg})
	}
	return ph
}

func TestPerRankWorkConservesTotal(t *testing.T) {
	costs := []float64{5, 1, 9, 2, 2, 7, 3, 4, 4, 1, 8, 6}
	segs := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	ph := buildPhase(costs, segs)
	var want float64
	for _, c := range costs {
		want += c
	}
	m := DefaultModel()
	for _, scheme := range []Scheme{StaticFine, StaticCoarse, Dynamic} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			work := m.PerRankWork(ph, p, scheme)
			var got float64
			for _, w := range work {
				got += w
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v p=%d: total %v, want %v", scheme, p, got, want)
			}
		}
	}
}

func TestSerialCostRepeatsPerRank(t *testing.T) {
	ph := buildPhase([]float64{4, 4}, nil)
	ph.SerialCost = 10
	m := DefaultModel()
	work := m.PerRankWork(ph, 4, StaticFine)
	for k, w := range work {
		if w < 10 {
			t.Fatalf("rank %d work %v missing serial cost", k, w)
		}
	}
}

func TestStaticFineIsContiguousBlocks(t *testing.T) {
	ph := buildPhase([]float64{1, 1, 1, 1, 1, 1}, nil)
	m := DefaultModel()
	work := m.PerRankWork(ph, 3, StaticFine)
	for k, w := range work {
		if w != 2 {
			t.Fatalf("rank %d got %v, want 2", k, w)
		}
	}
}

func TestStaticCoarseFollowsSegments(t *testing.T) {
	// Two segments with very different cost; with p=2 coarse puts each
	// segment on its own rank.
	costs := []float64{10, 10, 10, 1}
	segs := []int{0, 0, 0, 1}
	ph := buildPhase(costs, segs)
	m := DefaultModel()
	work := m.PerRankWork(ph, 2, StaticCoarse)
	if work[0] != 30 || work[1] != 1 {
		t.Fatalf("got %v, want [30 1]", work)
	}
}

func TestDynamicBeatsCoarseOnSkew(t *testing.T) {
	// One huge segment and many small ones: dynamic must end up closer to
	// balanced than coarse.
	var costs []float64
	var segs []int
	for i := 0; i < 64; i++ {
		costs = append(costs, 1)
		segs = append(segs, 0) // all in segment 0 → coarse piles on one rank
	}
	ph := buildPhase(costs, segs)
	m := DefaultModel()
	m.DynamicChunk = 4
	coarse := Imbalance(m.PerRankWork(ph, 4, StaticCoarse))
	dynamic := Imbalance(m.PerRankWork(ph, 4, Dynamic))
	if dynamic >= coarse {
		t.Fatalf("dynamic imbalance %v not better than coarse %v", dynamic, coarse)
	}
}

func TestPhaseTimeDecreasesWithRanks(t *testing.T) {
	costs := make([]float64, 1000)
	for i := range costs {
		costs[i] = 1
	}
	ph := buildPhase(costs, nil)
	m := DefaultModel()
	m.SecPerCost = 1e-3
	t1 := m.PhaseTime(ph, 1, StaticFine)
	t4 := m.PhaseTime(ph, 4, StaticFine)
	if t4 >= t1 {
		t.Fatalf("T(4)=%v not less than T(1)=%v", t4, t1)
	}
	if ratio := float64(t1) / float64(t4); ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("uniform work should scale ~4x, got %.2fx", ratio)
	}
}

func TestPhaseTimeChargesCommunication(t *testing.T) {
	ph := buildPhase([]float64{1}, nil)
	ph.Collectives = 1000
	ph.Words = 1_000_000
	m := DefaultModel()
	m.SecPerCost = 0
	t1 := m.PhaseTime(ph, 1, StaticFine)
	t64 := m.PhaseTime(ph, 64, StaticFine)
	if t1 != 0 {
		t.Fatalf("p=1 must not pay communication, got %v", t1)
	}
	if t64 == 0 {
		t.Fatal("p=64 must pay communication")
	}
}

func TestCalibrate(t *testing.T) {
	w := &Workload{}
	ph := w.AddPhase("work")
	ph.Items = append(ph.Items, Item{Cost: 500}, Item{Cost: 500})
	m := DefaultModel()
	m.Calibrate(w, 2*time.Second)
	if math.Abs(m.SecPerCost-0.002) > 1e-12 {
		t.Fatalf("SecPerCost = %v, want 0.002", m.SecPerCost)
	}
	if got := m.Time(w, 1, StaticFine); got != 2*time.Second {
		t.Fatalf("modeled sequential time %v, want 2s", got)
	}
}

func TestWorkloadPhaseLookup(t *testing.T) {
	w := &Workload{}
	w.AddPhase("a")
	w.AddPhase("b")
	if w.Phase("b") == nil || w.Phase("c") != nil {
		t.Fatal("phase lookup broken")
	}
	if len(w.Phases) != 2 || w.Phases[0].Name != "a" {
		t.Fatalf("phases not kept in order: %v", w.Phases)
	}
}

func TestImbalanceGrowsWithRanksOnSkewedWork(t *testing.T) {
	// Reproduces the §5.3.1 observation in miniature: with heavy-tailed
	// item costs, static-fine imbalance grows as p grows.
	costs := make([]float64, 4096)
	for i := range costs {
		costs[i] = 1
		if i%100 == 0 {
			costs[i] = 50
		}
	}
	ph := buildPhase(costs, nil)
	m := DefaultModel()
	small := m.PhaseImbalance(ph, 8, StaticFine)
	large := m.PhaseImbalance(ph, 1024, StaticFine)
	if large <= small {
		t.Fatalf("imbalance did not grow: p=8 %v, p=1024 %v", small, large)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]float64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for p, want := range cases {
		if got := ceilLog2(p); got != want {
			t.Fatalf("ceilLog2(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if StaticFine.String() != "static-fine" || StaticCoarse.String() != "static-coarse" || Dynamic.String() != "dynamic" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(42).String() == "" {
		t.Fatal("unknown scheme must still format")
	}
}

func TestPerSegmentBarrierPartition(t *testing.T) {
	// Two segments of 4 unit items each, p=2: every rank gets 2 items per
	// segment → 4 total each.
	ph := buildPhase([]float64{1, 1, 1, 1, 1, 1, 1, 1}, []int{0, 0, 0, 0, 1, 1, 1, 1})
	ph.PerSegmentBarrier = true
	m := DefaultModel()
	work := m.PerRankWork(ph, 2, StaticFine)
	if work[0] != 4 || work[1] != 4 {
		t.Fatalf("work = %v, want [4 4]", work)
	}
}

func TestPerSegmentBarrierSmallSegments(t *testing.T) {
	// Segments narrower than p: every segment's single item lands on rank 0,
	// so rank 0 serializes all of them — the lock-step behaviour.
	ph := buildPhase([]float64{3, 5, 2}, []int{0, 1, 2})
	ph.PerSegmentBarrier = true
	m := DefaultModel()
	work := m.PerRankWork(ph, 4, StaticFine)
	if work[0] != 10 {
		t.Fatalf("rank 0 work = %v, want 10", work[0])
	}
	for k := 1; k < 4; k++ {
		if work[k] != 0 {
			t.Fatalf("rank %d work = %v, want 0", k, work[k])
		}
	}
}

// TestModeledTimeMonotoneInP: for uniform-cost items the modeled compute
// time must never increase as ranks are added (communication terms may
// offset it, so test with zero comm charge).
func TestModeledTimeMonotoneInP(t *testing.T) {
	w := &Workload{}
	ph := w.AddPhase("uniform")
	for i := 0; i < 512; i++ {
		ph.Items = append(ph.Items, Item{Cost: 1})
	}
	m := DefaultModel()
	m.Alpha, m.Beta = 0, 0
	prev := m.Time(w, 1, StaticFine)
	for p := 2; p <= 1024; p *= 2 {
		cur := m.Time(w, p, StaticFine)
		if cur > prev {
			t.Fatalf("modeled time rose from %v to %v at p=%d", prev, cur, p)
		}
		prev = cur
	}
}

// TestCommunicationTermGrowsWithP: with compute zeroed, the α·log p charge
// must be non-decreasing in p.
func TestCommunicationTermGrowsWithP(t *testing.T) {
	w := &Workload{}
	ph := w.AddPhase("comm")
	ph.Collectives = 100
	m := DefaultModel()
	m.SecPerCost = 0
	prev := m.Time(w, 2, StaticFine)
	for p := 4; p <= 4096; p *= 2 {
		cur := m.Time(w, p, StaticFine)
		if cur < prev {
			t.Fatalf("comm charge fell from %v to %v at p=%d", prev, cur, p)
		}
		prev = cur
	}
}

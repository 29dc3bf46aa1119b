package obs

import (
	"bytes"
	"strings"
	"testing"

	"parsimone/internal/comm"
	"parsimone/internal/pool"
	"parsimone/internal/trace"
)

// fixedClock makes recorders deterministic in tests.
func fixedClock(r *Recorder) *Recorder {
	t := int64(0)
	r.now = func() int64 { t += 1000; return t }
	return r
}

func TestRecorderStampsAndOrders(t *testing.T) {
	r := fixedClock(NewRecorder(3))
	r.Emit(Event{Type: TypeTaskStart, Task: &TaskInfo{Name: "ganesh"}})
	r.Emit(Event{Type: TypeTaskEnd, Task: &TaskInfo{Name: "ganesh"}, DurNS: 42})
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("seq not dense ascending: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Rank != 3 || evs[1].Rank != 3 {
		t.Fatalf("rank not stamped: %+v", evs)
	}
	if evs[0].TNS == 0 || evs[1].TNS <= evs[0].TNS {
		t.Fatalf("wall clock not stamped: %d, %d", evs[0].TNS, evs[1].TNS)
	}
	if err := Validate(evs); err != nil {
		t.Fatal(err)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Type: TypeTaskStart, Task: &TaskInfo{Name: "x"}}) // must not panic
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder returned events: %v", evs)
	}
	var h *Hooks
	h.Emit(Event{Type: TypeTaskStart, Task: &TaskInfo{Name: "x"}})
	h.PoolCost("p", pool.Stats{})
	h.CommStats(0, comm.Stats{})
	h.RankImbalance("p", []float64{1, 2})
	h.Decision("p/x", 2, func(int) float64 { return 1 }, 2, 2, pool.Stats{})
	h.Serial("p/x", 1)
	if h.Phase("p/x", true) != nil || h.Observed() {
		t.Fatal("nil hooks recorded or observed")
	}
	if NewHooks(nil, nil, nil) != nil {
		t.Fatal("NewHooks(nil, nil, nil) should be nil")
	}
}

// TestHooksDecision pins the one accounting rule of a collective decision:
// the registry counts what this rank evaluated — every candidate of a
// replicated decision, its block's pool counters of a distributed one — and
// one decision under the engine's name; the work record gets the decision's
// serial cost or items on a per-segment phase.
func TestHooksDecision(t *testing.T) {
	const big = 1 << 20 // distributed whatever the constant's exact value
	reg, wl := NewRegistry(), &trace.Workload{}
	h := NewHooks(nil, reg, wl)
	unit := func(int) float64 { return 10 }
	h.Decision("ganesh/x", 3, unit, 30, 3, pool.Stats{})
	h.Serial("ganesh/x", 5)
	block := pool.Stats{Workers: 2, Items: []int64{2, 1}, Cost: []float64{2 * big, big}}
	h.Decision("ganesh/x", 8, func(int) float64 { return big }, 8*big, 8, block)
	h.Decision("tree/build", 2, unit, 20, 2, pool.Stats{})

	counter := func(name, phase string) int64 { return reg.Counter(name, "", "phase", phase).Value() }
	if got := counter("pool_items_total", "ganesh/x"); got != 3+3 {
		t.Errorf("ganesh/x items = %d, want 3 replicated + 3 in this rank's block", got)
	}
	if got := counter("pool_cost_total", "ganesh/x"); got != 30+3*big {
		t.Errorf("ganesh/x cost = %d, want %d", got, 30+3*big)
	}
	if got := counter("ganesh_decisions_total", "ganesh/x"); got != 2 {
		t.Errorf("ganesh/x decisions = %d, want 2", got)
	}
	if got := counter("tree_decisions_total", "tree/build"); got != 1 {
		t.Errorf("tree/build decisions = %d, want 1", got)
	}
	if got := counter("pool_items_total", "tree/build"); got != 2 {
		t.Errorf("tree/build items = %d, want 2", got)
	}

	ph := wl.Phase("ganesh/x")
	if !ph.PerSegmentBarrier || ph.SerialCost != 30+5 || len(ph.Items) != 8 || ph.Collectives != 1 || ph.Words != 8 {
		t.Errorf("ganesh/x work: per-segment %v, serial %v, %d items, %d collectives, %d words",
			ph.PerSegmentBarrier, ph.SerialCost, len(ph.Items), ph.Collectives, ph.Words)
	}
	if ph := wl.Phase("tree/build"); ph.SerialCost != 20 || len(ph.Items) != 0 {
		t.Errorf("tree/build work: serial %v, %d items", ph.SerialCost, len(ph.Items))
	}
	if h.Phase("splits/assign", false).PerSegmentBarrier || len(wl.Phases) != 3 {
		t.Errorf("Phase: %d phases after a global one", len(wl.Phases))
	}

	// Work-only hooks record without being observed; registry-only ones
	// count without recording.
	wl = &trace.Workload{}
	h = NewHooks(nil, nil, wl)
	if h == nil || h.Observed() {
		t.Fatal("work-only hooks must exist and must not count as observed")
	}
	h.Decision("ganesh/x", 3, unit, 30, 3, pool.Stats{})
	if ph := wl.Phase("ganesh/x"); ph == nil || ph.SerialCost != 30 {
		t.Fatalf("work-only hooks recorded %+v", ph)
	}
	reg = NewRegistry()
	h = NewHooks(nil, reg, nil)
	h.Decision("ganesh/x", 3, unit, 30, 3, pool.Stats{})
	h.Serial("ganesh/x", 5)
	if !h.Observed() || h.Phase("ganesh/x", true) != nil || reg.Counter("pool_items_total", "", "phase", "ganesh/x").Value() != 3 {
		t.Fatal("registry-only hooks did not count the decision alone")
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []struct {
		name string
		evs  []Event
	}{
		{"unknown type", []Event{{Seq: 0, Type: "bogus"}}},
		{"missing payload", []Event{{Seq: 0, Type: TypeTaskStart}}},
		{"multiple payloads", []Event{{Seq: 0, Type: TypeTaskStart,
			Task: &TaskInfo{Name: "t"}, Run: &RunInfo{}}}},
		{"negative rank", []Event{{Seq: 0, Rank: -1, Type: TypeTaskStart, Task: &TaskInfo{Name: "t"}}}},
		{"non-dense seq", []Event{{Seq: 5, Type: TypeTaskStart, Task: &TaskInfo{Name: "t"}}}},
	}
	for _, tc := range cases {
		if err := Validate(tc.evs); err == nil {
			t.Errorf("%s: Validate accepted invalid stream", tc.name)
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	mk := func(rank int, n int) []Event {
		r := fixedClock(NewRecorder(rank))
		for i := 0; i < n; i++ {
			r.Emit(Event{Type: TypePoolCost, Pool: &PoolInfo{Phase: "ph", Workers: 1, Cost: []float64{float64(i)}}})
		}
		return r.Events()
	}
	a := Merge([][]Event{mk(0, 3), mk(1, 2), mk(2, 3)})
	b := Merge([][]Event{mk(0, 3), mk(1, 2), mk(2, 3)})
	if err := DiffCanonical(a, b); err != nil {
		t.Fatal(err)
	}
	if err := Validate(a); err != nil {
		t.Fatal(err)
	}
	// (seq, rank) interleaving: first three events are the rank 0,1,2
	// events with local seq 0.
	for i := 0; i < 3; i++ {
		if a[i].Rank != i {
			t.Fatalf("event %d has rank %d, want %d (lockstep interleaving)", i, a[i].Rank, i)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := fixedClock(NewRecorder(0))
	r.Emit(Event{Type: TypeRunStart, Run: &RunInfo{Ranks: 2, Seed: 7, N: 10, M: 5}})
	r.Emit(Event{Type: TypeCommStats, Comm: &comm.Stats{Sends: 3, Elems: 12}})
	r.Emit(Event{Type: TypeRecovery, Recovery: &trace.RecoveryEvent{Attempt: 1, Rank: 1, Err: "boom"}})
	r.Emit(Event{Type: TypeConsensus, Consensus: &ConsensusInfo{Remaining: 8, Eigenvalue: 2.5, Iters: 12, Converged: true, Extracted: 4}})
	evs := r.Events()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(evs) {
		t.Fatalf("wrote %d lines, want %d", got, len(evs))
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(back); err != nil {
		t.Fatal(err)
	}
	if err := DiffCanonical(evs, back); err != nil {
		t.Fatal(err)
	}
}

func TestDiffCanonicalIgnoresClockOnly(t *testing.T) {
	mk := func(clockStep int64) []Event {
		r := NewRecorder(0)
		tck := int64(0)
		r.now = func() int64 { tck += clockStep; return tck }
		r.Emit(Event{Type: TypeTaskStart, Task: &TaskInfo{Name: "modules"}})
		r.Emit(Event{Type: TypeTaskEnd, Task: &TaskInfo{Name: "modules"}, DurNS: clockStep})
		return r.Events()
	}
	if err := DiffCanonical(mk(10), mk(999)); err != nil {
		t.Fatalf("clock-only difference reported: %v", err)
	}
	a := mk(10)
	b := mk(10)
	b[1].Task.Name = "other"
	if err := DiffCanonical(a, b); err == nil {
		t.Fatal("payload difference not reported")
	}
	if err := DiffCanonical(a, a[:1]); err == nil {
		t.Fatal("length difference not reported")
	}
}

func TestHooksPoolCostAndImbalance(t *testing.T) {
	rec := fixedClock(NewRecorder(1))
	reg := NewRegistry()
	h := NewHooks(rec, reg, nil)
	st := pool.Stats{Workers: 2, Items: []int64{10, 6}, Cost: []float64{30, 10}}
	h.PoolCost("splits/assign", st)
	h.WorkerImbalance("splits/assign", st)
	h.RankImbalance("splits/assign", []float64{60, 20})

	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[1].Imbalance.Across != "workers" || evs[2].Imbalance.Across != "ranks" {
		t.Fatalf("imbalance events wrong: %+v", evs[1:])
	}
	// (30,10): avg 20, max 30 → 0.5; (60,20): avg 40, max 60 → 0.5.
	if evs[1].Imbalance.Value != 0.5 || evs[2].Imbalance.Value != 0.5 {
		t.Fatalf("imbalance values: %v, %v", evs[1].Imbalance.Value, evs[2].Imbalance.Value)
	}
	if got := reg.Counter("pool_items_total", "", "phase", "splits/assign").Value(); got != 16 {
		t.Fatalf("pool_items_total = %d, want 16", got)
	}
}

package comm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// chatter is a small fixed communication program: every rank's op sequence
// is a pure function of (p, rank), which is what fault addressing relies on.
func chatter(c *Comm) error {
	for i := 0; i < 3; i++ {
		sum := AllReduce(c, c.Rank()+1, func(a, b int) int { return a + b })
		want := c.Size() * (c.Size() + 1) / 2
		if sum != want {
			return fmt.Errorf("round %d: sum %d, want %d", i, sum, want)
		}
		Barrier(c)
	}
	return nil
}

func TestFaultCrashDeterministic(t *testing.T) {
	faults := []Fault{{Rank: 2, Op: 5, Kind: FaultCrash}}
	var first *RankError
	for trial := 0; trial < 3; trial++ {
		_, err := RunWithFaults(4, faults, chatter)
		var re *RankError
		if !errors.As(err, &re) {
			t.Fatalf("trial %d: got %v, want RankError", trial, err)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("trial %d: error %v does not wrap ErrInjected", trial, err)
		}
		if re.Rank != 2 {
			t.Fatalf("trial %d: crash reported from rank %d, want 2", trial, re.Rank)
		}
		if first == nil {
			first = re
			continue
		}
		if re.Err.Error() != first.Err.Error() {
			t.Fatalf("trial %d: error %q differs from first trial %q",
				trial, re.Err, first.Err)
		}
	}
	if !strings.Contains(first.Err.Error(), "op 5") {
		t.Fatalf("crash error %q does not name the op index", first.Err)
	}
}

// TestFaultCrashEveryOp proves every op index of a fixed program is an
// addressable crash site: whatever op the fault names, the run fails with
// ErrInjected from that rank at that op, and the originating failure is
// reported in preference to the cascaded aborts.
func TestFaultCrashEveryOp(t *testing.T) {
	const p, victim = 4, 1
	stats, err := Run(p, chatter)
	if err != nil {
		t.Fatal(err)
	}
	maxOp := stats[victim].Ops
	if maxOp < 6 {
		t.Fatalf("probe run made only %d ops on rank %d; program too small", maxOp, victim)
	}
	for op := int64(1); op <= maxOp; op++ {
		_, err := RunWithFaults(p, []Fault{{Rank: victim, Op: op, Kind: FaultCrash}}, chatter)
		var re *RankError
		if !errors.As(err, &re) || !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d: got %v, want injected RankError", op, err)
		}
		if re.Rank != victim {
			t.Fatalf("op %d: reported rank %d, want %d", op, re.Rank, victim)
		}
		if want := fmt.Sprintf("op %d", op); !strings.Contains(re.Err.Error(), want) {
			t.Fatalf("op %d: error %q does not mention %q", op, re.Err, want)
		}
	}
}

func TestFaultDelayPreservesResults(t *testing.T) {
	run := func(faults []Fault) ([]Stats, error) {
		return RunWithFaults(4, faults, chatter)
	}
	clean, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := run([]Fault{
		{Rank: 0, Op: 2, Kind: FaultDelay, Delay: 5 * time.Millisecond},
		{Rank: 3, Op: 7, Kind: FaultDelay, Delay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	for k := range clean {
		if clean[k] != delayed[k] {
			t.Fatalf("rank %d stats changed under delay: %+v vs %+v", k, clean[k], delayed[k])
		}
	}
}

// TestFaultDelayReleasedByAbort: a rank stalled in an injected delay must be
// released when another rank fails — otherwise a crashed world would hang for
// the remainder of the stall. The hour-long delay makes a missed release a
// test timeout rather than a silent pass.
func TestFaultDelayReleasedByAbort(t *testing.T) {
	boom := errors.New("boom")
	faults := []Fault{{Rank: 0, Op: 1, Kind: FaultDelay, Delay: time.Hour}}
	_, err := RunWithFaults(2, faults, func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		Barrier(c) // rank 0 stalls at op 1 of this barrier
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the originating boom error", err)
	}
}

func TestFaultDropRetryDeliversAndCounts(t *testing.T) {
	faults := []Fault{{Rank: 0, Op: 1, Kind: FaultDropRetry, Delay: time.Millisecond}}
	stats, err := RunWithFaults(2, faults, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 42)
			return nil
		}
		if got := Recv[int](c, 0); got != 42 {
			return fmt.Errorf("received %d, want 42", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Retries != 1 {
		t.Fatalf("rank 0 counted %d retries, want 1", stats[0].Retries)
	}
	if stats[1].Retries != 0 {
		t.Fatalf("rank 1 counted %d retries, want 0", stats[1].Retries)
	}
}

func TestPlanFaultDeterministicAndInRange(t *testing.T) {
	const p, maxOp = 5, 37
	for seed := uint64(0); seed < 200; seed++ {
		f := PlanFault(seed, p, maxOp)
		if g := PlanFault(seed, p, maxOp); g != f {
			t.Fatalf("seed %d: PlanFault not deterministic: %v vs %v", seed, f, g)
		}
		if f.Rank < 0 || f.Rank >= p {
			t.Fatalf("seed %d: rank %d outside [0,%d)", seed, f.Rank, p)
		}
		if f.Op < 1 || f.Op > maxOp {
			t.Fatalf("seed %d: op %d outside [1,%d]", seed, f.Op, maxOp)
		}
		if crash := PlanFault(seed, p, maxOp, FaultCrash); crash.Kind != FaultCrash {
			t.Fatalf("seed %d: restricted kind ignored, got %v", seed, crash.Kind)
		}
	}
}

// TestCollectiveAbortPropagation (one row per collective): when a rank dies
// instead of entering a collective, every rank blocked inside that collective
// must be released with ErrAborted, and the originating failure — not a
// cascaded abort — must be the error Run reports.
func TestCollectiveAbortPropagation(t *testing.T) {
	boom := errors.New("victim died before the collective")
	cases := []struct {
		name string
		op   func(c *Comm)
	}{
		{"Bcast", func(c *Comm) { Bcast(c, 0, c.Rank()) }},
		{"AllGather", func(c *Comm) { AllGather(c, c.Rank()) }},
		{"AllGatherv", func(c *Comm) { AllGatherv(c, []int{c.Rank()}) }},
		{"AllReduce", func(c *Comm) { AllReduce(c, c.Rank(), func(a, b int) int { return a + b }) }},
		{"Barrier", func(c *Comm) { Barrier(c) }},
		{"Split", func(c *Comm) { Split(c, c.Rank()%2) }},
		{"NewCounter", func(c *Comm) { NewCounter(c) }},
	}
	const p, victim = 4, 2
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			released := make([]error, p) // each rank writes only its own slot
			_, err := Run(p, func(c *Comm) error {
				if c.Rank() == victim {
					panic(boom)
				}
				defer func() {
					if r := recover(); r != nil {
						if e, ok := r.(error); ok {
							released[c.Rank()] = e
						}
						panic(r)
					}
				}()
				tc.op(c)
				return nil
			})
			var re *RankError
			if !errors.As(err, &re) || re.Rank != victim || !errors.Is(err, boom) {
				t.Fatalf("got %v, want the victim's RankError from rank %d", err, victim)
			}
			blocked := 0
			for k, e := range released {
				if e == nil {
					continue // this rank's part of the collective completed
				}
				blocked++
				if !errors.Is(e, ErrAborted) {
					t.Fatalf("rank %d released with %v, want ErrAborted", k, e)
				}
			}
			if blocked == 0 {
				t.Fatalf("no rank was blocked in %s; the test exercises nothing", tc.name)
			}
		})
	}
}

// counterOps is the number of ops a rank makes in NewCounter on a world of
// two: the broadcast's entry, and rank 1's receive of the counter or rank
// 0's send of it. A rank's first Next is its op counterOps+1.
const counterOps = 2

// TestFaultCrashAtCounterNext: Next is an addressable op — a crash fault
// at a rank's first Next kills that rank there, and the abort releases its
// peer from the collective it waits in.
func TestFaultCrashAtCounterNext(t *testing.T) {
	faults := []Fault{{Rank: 1, Op: counterOps + 1, Kind: FaultCrash}}
	_, err := RunWithFaults(2, faults, func(c *Comm) error {
		ct := NewCounter(c)
		ct.Next(c)
		Barrier(c)
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 || !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want an injected crash of rank 1", err)
	}
	if want := fmt.Sprintf("killed at op %d", counterOps+1); !strings.Contains(err.Error(), want) {
		t.Fatalf("crash reads %q, want it to name %q", err, want)
	}
}

// TestFaultDelayAtCounterNextReleasedByAbort: a rank stalled an hour in
// Next is released as soon as another rank fails, and the world reports the
// failure, not the cascade.
func TestFaultDelayAtCounterNextReleasedByAbort(t *testing.T) {
	boom := errors.New("peer failed while rank 1 was stalled")
	faults := []Fault{{Rank: 1, Op: counterOps + 1, Kind: FaultDelay, Delay: time.Hour}}
	start := time.Now()
	_, err := RunWithFaults(2, faults, func(c *Comm) error {
		ct := NewCounter(c)
		if c.Rank() == 0 {
			time.Sleep(10 * time.Millisecond) // let rank 1 enter its stall
			return boom
		}
		ct.Next(c)
		t.Error("the stalled Next returned instead of being released by the abort")
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 || !errors.Is(err, boom) {
		t.Fatalf("got %v, want rank 0's failure", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("world took %v to abort; the stalled Next was not released", elapsed)
	}
}

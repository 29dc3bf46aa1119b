package splits

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"parsimone/internal/comm"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
)

// TestDynamicCoordTimeoutHarmless: with all workers healthy, an armed
// coordinator watchdog must not change the learned splits.
func TestDynamicCoordTimeoutHarmless(t *testing.T) {
	q, modules, trees, _ := fixture(t, 11)
	pr := score.DefaultPrior()
	par := Params{NumSplits: 2, MaxSteps: 24, DynamicChunk: 7}
	want := Learn(q, pr, modules, trees, par, prng.New(17), nil)
	armed := par
	armed.CoordTimeout = 10 * time.Second
	_, err := comm.Run(3, func(c *comm.Comm) error {
		got := LearnParallelDynamic(on(c, 1, nil), q, kernelOf(q, pr), modules, trees, armed, prng.New(17))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: result differs with CoordTimeout armed", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDynamicCoordTimeoutDetectsHungWorker: a worker stalled before its
// first work request (an injected hour-long delay, the model of a hung rank)
// must turn into a coordinator timeout error rather than a silent hang, and
// the resulting abort must release the stalled worker too — the whole world
// returns promptly.
func TestDynamicCoordTimeoutDetectsHungWorker(t *testing.T) {
	q, modules, trees, _ := fixture(t, 11)
	pr := score.DefaultPrior()
	par := Params{NumSplits: 2, MaxSteps: 24, DynamicChunk: 7, CoordTimeout: 50 * time.Millisecond}
	// Rank 1's op 1 is its first work-request Send: delaying it by an hour
	// models a worker that accepted work assignment but never engages.
	faults := []comm.Fault{{Rank: 1, Op: 1, Kind: comm.FaultDelay, Delay: time.Hour}}
	start := time.Now()
	_, err := comm.RunWithFaults(3, faults, func(c *comm.Comm) error {
		LearnParallelDynamic(on(c, 1, nil), q, kernelOf(q, pr), modules, trees, par, prng.New(17))
		return nil
	})
	var re *comm.RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("got %v, want the coordinator's (rank 0) RankError", err)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("error %v does not report the timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("world took %v to abort; the stalled worker was not released", elapsed)
	}
}

// TestDynamicCoordinatorReleasedByCancel: a coordinator waiting on a hung
// worker with NO watchdog configured (CoordTimeout 0, the unbounded wait)
// must still be released promptly when the run's cancel signal fires —
// cancellation, not the timeout, tears the world down.
func TestDynamicCoordinatorReleasedByCancel(t *testing.T) {
	q, modules, trees, _ := fixture(t, 11)
	pr := score.DefaultPrior()
	reason := errors.New("test: run cancelled")
	done := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(done)
	}()
	// Rank 1 never makes its first work request; without a watchdog only
	// the cancel signal can release the coordinator.
	faults := []comm.Fault{{Rank: 1, Op: 1, Kind: comm.FaultDelay, Delay: time.Hour}}
	start := time.Now()
	_, err := comm.RunWithFaults(3, faults, func(c *comm.Comm) error {
		rc := rank.Context{Comm: c, Cancel: comm.NewCanceler(done, func() error { return reason })}
		LearnParallelDynamic(rc, q, kernelOf(q, pr), modules, trees, Params{NumSplits: 2, MaxSteps: 24, DynamicChunk: 7}, prng.New(17))
		return nil
	})
	var re *comm.RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("got %v, want the coordinator's (rank 0) RankError", err)
	}
	if !errors.Is(err, reason) {
		t.Fatalf("error %v does not carry the cancellation reason", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("world took %v to abort after cancellation", elapsed)
	}
}

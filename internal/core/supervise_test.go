package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"parsimone/internal/trace"
)

// networkBytes is the binary wire form of out's network — the byte-level
// identity two drivers of the same run must agree on.
func networkBytes(t *testing.T, out *Output) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := out.Network.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// doneCounter counts the ranks that armed a canceler on the context.
type doneCounter struct {
	context.Context
	asked *atomic.Int64
}

func (c doneCounter) Done() <-chan struct{} {
	c.asked.Add(1)
	return c.Context.Done()
}

// TestSuperviseRestartHook pins the one seam a queueing caller gets: between
// is told each restart exactly once, with the event the output later records;
// it is never told a failure the run will not restart from; a context that
// fires while it waits ends the run as any cancellation does and starts no
// further world; and LearnParallel is Supervise with nobody waiting.
func TestSuperviseRestartHook(t *testing.T) {
	d, opt, _ := recoveryFixture(t)
	injected := opt
	injected.Inject = &FaultSpec{Task: TaskGaneSH, Rank: 0}
	injected.MaxRestarts = 1

	t.Run("once_per_restart", func(t *testing.T) {
		run := injected
		run.CheckpointDir = t.TempDir()
		var seen []trace.RecoveryEvent
		got, err := Supervise(2, d, run, func(ev trace.RecoveryEvent) { seen = append(seen, ev) })
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if len(seen) != 1 || !reflect.DeepEqual(seen, got.Recovery) {
			t.Fatalf("between saw %+v, the output records %+v; want the same one event", seen, got.Recovery)
		}
		run.CheckpointDir = t.TempDir()
		plain, err := LearnParallel(2, d, run)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(networkBytes(t, plain), networkBytes(t, got)) || !reflect.DeepEqual(plain.Recovery, got.Recovery) {
			t.Fatal("LearnParallel and Supervise(…, nil-or-not) disagree on the network bytes or the recovery record")
		}
	})

	t.Run("never_when_exhausted", func(t *testing.T) {
		run := injected
		run.MaxRestarts = 0
		_, err := Supervise(2, d, run, func(ev trace.RecoveryEvent) {
			t.Errorf("between called with %v for a failure the run cannot restart from", ev)
		})
		if err == nil {
			t.Fatal("crash with MaxRestarts=0 returned no error")
		}
	})

	t.Run("cancel_inside_between", func(t *testing.T) {
		run := injected
		run.MaxRestarts = 3
		run.CheckpointDir = t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Every rank of every world asks the context for its done channel
		// once, so the count says how many worlds were started.
		var asked atomic.Int64
		run.Ctx = doneCounter{ctx, &asked}
		calls, askedBefore := 0, int64(0)
		_, err := Supervise(2, d, run, func(trace.RecoveryEvent) {
			calls++
			askedBefore = asked.Load()
			cancel()
		})
		var ce *CancelledError
		if !errors.As(err, &ce) || !errors.Is(err, ErrCancelled) {
			t.Fatalf("got %v (%T), want a *CancelledError wrapping ErrCancelled", err, err)
		}
		if calls != 1 || askedBefore != 2 || asked.Load() != askedBefore {
			t.Fatalf("between called %d times, ranks started %d before and %d after it; want 1, 2 and none — no world starts under a fired context",
				calls, askedBefore, asked.Load()-askedBefore)
		}
		want := DurableCheckpoints(run.CheckpointDir)
		if ce.CheckpointDir != run.CheckpointDir || len(want) == 0 || !reflect.DeepEqual(ce.Checkpoints, want) {
			t.Fatalf("CancelledError names %q %v, want %q %v", ce.CheckpointDir, ce.Checkpoints, run.CheckpointDir, want)
		}
	})
}

// TestReturnedErrorIsNotRestarted: a restart fixes a crash, not a refusal. A
// checkpoint directory written under another seed is refused identically by
// every world, so the refusal is the caller's error on the first attempt,
// whatever the restart budget.
func TestReturnedErrorIsNotRestarted(t *testing.T) {
	d, opt, _ := recoveryFixture(t)
	opt.CheckpointDir = t.TempDir()
	if _, err := LearnParallel(2, d, opt); err != nil {
		t.Fatal(err)
	}
	opt.Seed = 99
	opt.MaxRestarts = 3
	_, err := Supervise(2, d, opt, func(ev trace.RecoveryEvent) {
		t.Errorf("between called with %v for an error a rank returned", ev)
	})
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("got %v, want the stale-checkpoint refusal", err)
	}
}

// TestLearnRejectsNonPositiveRanks: a world of no ranks, or of fewer, cannot
// exist; every entry that takes p says so with a plain error before touching
// the data, and none panics.
func TestLearnRejectsNonPositiveRanks(t *testing.T) {
	d, _ := testData(t, 20, 16, 1)
	opt := fastOptions(1)
	for _, p := range []int{0, -1} {
		if err := Check(p, d, opt); err == nil {
			t.Errorf("Check(%d) accepted the world", p)
		}
		if out, err := LearnParallel(p, d, opt); err == nil || out != nil {
			t.Errorf("LearnParallel(%d) = (%v, %v), want a plain error", p, out != nil, err)
		}
		if out, err := Supervise(p, d, opt, nil); err == nil || out != nil {
			t.Errorf("Supervise(%d) = (%v, %v), want a plain error", p, out != nil, err)
		}
	}
	// Check refuses p first: even nil data is not looked at.
	if err := Check(0, nil, opt); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Errorf("Check(0, nil) = %v, want the rank refusal", err)
	}
}

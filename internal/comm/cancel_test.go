package comm

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestCancelerNilSafe: the nil Canceler is a full no-op — checks pass,
// counts read zero, and Done blocks forever.
func TestCancelerNilSafe(t *testing.T) {
	var cl *Canceler
	cl.Check() // must not panic
	if cl.Checks() != 0 {
		t.Fatalf("nil Canceler counted %d checks", cl.Checks())
	}
	select {
	case <-cl.Done():
		t.Fatal("nil Canceler's Done channel is closed")
	default:
	}
}

// TestCancelerCounts: an unfired Canceler counts its checks and stays
// silent.
func TestCancelerCounts(t *testing.T) {
	cl := NewCanceler(nil, nil)
	for i := 0; i < 5; i++ {
		cl.Check()
	}
	if cl.Checks() != 5 {
		t.Fatalf("counted %d checks, want 5", cl.Checks())
	}
}

// TestCancelerInjectAt: the injected fire is exact — checks 1..n−1 pass,
// check n panics with the reason error.
func TestCancelerInjectAt(t *testing.T) {
	reason := errors.New("test: injected cancel")
	cl := NewCanceler(nil, func() error { return reason }).InjectAt(3)
	cl.Check()
	cl.Check()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("third check did not fire the injection")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, reason) {
			t.Fatalf("panic %v does not wrap the reason error", r)
		}
		if cl.Checks() != 3 {
			t.Fatalf("fired after %d checks, want 3", cl.Checks())
		}
	}()
	cl.Check()
}

// TestCancelerDoneFires: once the done channel closes, the next check
// panics with the reason evaluated at fire time.
func TestCancelerDoneFires(t *testing.T) {
	reason := errors.New("test: external cancel")
	done := make(chan struct{})
	cl := NewCanceler(done, func() error { return reason })
	cl.Check() // open channel: no fire
	close(done)
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, reason) {
			t.Fatalf("panic %v does not wrap the reason error", r)
		}
	}()
	cl.Check()
}

// TestRecvAnyCtxDelivers: with a live Canceler attached, RecvAnyCtx still
// delivers messages exactly as it does with a nil one.
func TestRecvAnyCtxDelivers(t *testing.T) {
	cl := NewCanceler(make(chan struct{}), nil)
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			Send(c, 0, 42)
			return nil
		}
		from, v, ok := RecvAnyCtx[int](c, cl, time.Minute)
		if !ok || from != 1 || v != 42 {
			t.Errorf("RecvAnyCtx got %d/%d/%v, want 1/42/true", from, v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvAnyCtxTimesOut: the watchdog timeout still applies with a live
// (unfired) Canceler.
func TestRecvAnyCtxTimesOut(t *testing.T) {
	cl := NewCanceler(make(chan struct{}), nil)
	_, err := Run(1, func(c *Comm) error {
		from, v, ok := RecvAnyCtx[int](c, cl, 20*time.Millisecond)
		if ok || from != -1 || v != 0 {
			t.Errorf("RecvAnyCtx got %d/%d/%v, want -1/0/false", from, v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvAnyCtxCancelReleasesWait: a blocked receive is released the
// moment the cancel signal fires — even with no timeout configured (d ≤ 0,
// the unbounded coordinator wait) — and the rank aborts with the reason.
func TestRecvAnyCtxCancelReleasesWait(t *testing.T) {
	reason := errors.New("test: drain")
	done := make(chan struct{})
	cl := NewCanceler(done, func() error { return reason })
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(done)
	}()
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			RecvAnyCtx[int](c, cl, 0) // no watchdog: only cancellation can release this
			t.Error("cancelled RecvAnyCtx returned instead of panicking")
		} else {
			Recv[int](c, 0) // blocked forever; released by the abort
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || !errors.Is(err, reason) {
		t.Fatalf("world error %v does not carry the cancellation reason from a rank", err)
	}
	if !strings.Contains(err.Error(), "wait cancelled") {
		t.Fatalf("error %q does not describe a cancelled wait", err)
	}
}

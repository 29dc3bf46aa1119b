package comm

import (
	"errors"
	"testing"
)

// TestCancelerNilSafe: the nil Canceler is a full no-op — checks pass and
// counts read zero.
func TestCancelerNilSafe(t *testing.T) {
	var cl *Canceler
	cl.Check() // must not panic
	if cl.Checks() != 0 {
		t.Fatalf("nil Canceler counted %d checks", cl.Checks())
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

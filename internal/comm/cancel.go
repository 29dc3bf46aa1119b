// Cooperative cancellation for the message-passing runtime. A long
// structure-learning run must be stoppable without losing its resumable
// state: the Canceler is the one cancel signal every engine layer polls at
// its deterministic iteration boundaries (GaneSH update steps, consensus
// peeling rounds, module-unit edges — the same boundaries the fault model
// of internal/core addresses).
//
// The determinism contract is strict: a cancellation check NEVER consumes a
// PRNG draw and NEVER performs communication, so attaching, polling, or
// firing a Canceler cannot perturb the learned network. Cancellation fires
// by panicking, which rides the existing abort-propagation path: the
// panicking rank's world is torn down exactly as for a crash, every durable
// checkpoint written so far survives, and a resumed run is bit-identical to
// an uninterrupted one.

package comm

import "fmt"

// Canceler polls a cancellation signal at deterministic program points.
// Each rank holds its own Canceler (the checks counter, like a Comm, must
// only be touched from the rank's goroutine); all ranks of a world share
// the underlying done channel.
//
// A nil *Canceler is a valid no-op: Check returns immediately.
type Canceler struct {
	done   <-chan struct{}
	reason func() error
	checks int64
	fireAt int64
}

// NewCanceler returns a Canceler over done; reason supplies the error to
// fail with when the signal fires (called at fire time, so it can
// distinguish cancellation from deadline expiry). A nil done channel never
// fires organically — useful for a counting-only Canceler. A nil reason
// falls back to a generic cancellation error.
func NewCanceler(done <-chan struct{}, reason func() error) *Canceler {
	return &Canceler{done: done, reason: reason}
}

// InjectAt arms a deterministic test injection: the Canceler fires at its
// n-th Check (1-based) even though the done channel is still open — the
// cancellation analog of Fault.Op addressing. Because checks happen at
// deterministic program points, (rank, n) is a reproducible address for a
// fixed program and rank count. n ≤ 0 disables injection.
func (cl *Canceler) InjectAt(n int64) *Canceler {
	cl.fireAt = n
	return cl
}

// Checks returns how many times Check has been called — the probe a cancel
// matrix uses to enumerate every cancellation point of a clean run.
func (cl *Canceler) Checks() int64 {
	if cl == nil {
		return 0
	}
	return cl.checks
}

// cause resolves the error to fail with.
func (cl *Canceler) cause() error {
	if cl.reason != nil {
		if err := cl.reason(); err != nil {
			return err
		}
	}
	return fmt.Errorf("comm: run cancelled")
}

// Check polls the signal: if it has fired (or a test injection is due),
// Check panics with the reason error, tearing the rank down through the
// same recover/abort path as a crash. The poll is non-blocking, consumes no
// PRNG state, and performs no communication, so placing a Check anywhere is
// result-invisible until the moment it fires.
func (cl *Canceler) Check() {
	if cl == nil {
		return
	}
	cl.checks++
	if cl.fireAt > 0 && cl.checks == cl.fireAt {
		panic(fmt.Errorf("cancelled at check %d (injected): %w", cl.checks, cl.cause()))
	}
	select {
	case <-cl.done:
		panic(fmt.Errorf("cancelled at check %d: %w", cl.checks, cl.cause()))
	default:
	}
}

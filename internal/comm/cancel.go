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

import (
	"fmt"
	"time"
)

// Canceler polls a cancellation signal at deterministic program points.
// Each rank holds its own Canceler (the checks counter, like a Comm, must
// only be touched from the rank's goroutine); all ranks of a world share
// the underlying done channel.
//
// A nil *Canceler is a valid no-op: Check returns immediately and Done
// returns a nil channel (which blocks forever in a select).
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

// Done exposes the underlying signal channel for select-based waits
// (RecvAnyCtx); nil when the Canceler is nil or counting-only.
func (cl *Canceler) Done() <-chan struct{} {
	if cl == nil {
		return nil
	}
	return cl.done
}

// cause resolves the error to fail with.
func (cl *Canceler) cause() error {
	if cl == nil {
		return fmt.Errorf("comm: run cancelled")
	}
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

// RecvAnyCtx blocks until a message whose payload is assignable to T
// arrives from any sender, and returns the sender's rank and the message.
// The payload type acts as a lightweight MPI tag: messages of other types
// are stashed for later typed Recv calls, so a coordinator matching requests
// is not confused by peers that have already moved on to a later exchange.
// Stashed messages are scanned lowest sender rank first; per-sender order
// among same-type messages is preserved.
//
// The wait honors both a deadline and the run's cancel signal. If no
// message of type T arrives within d it returns (-1, zero, false), which
// lets a coordinator turn a hung peer into a detectable failure (the dynamic
// split-distribution watchdog); d ≤ 0 waits without bound. When the cancel
// signal fires first it panics with the Canceler's reason error, aborting
// the world like any rank failure; a nil cl never fires.
func RecvAnyCtx[T any](c *Comm, cl *Canceler, d time.Duration) (int, T, bool) {
	c.tick()
	for from := 0; from < c.world.size; from++ {
		q := c.pending[from]
		for i, v := range q {
			if tv, ok := v.(T); ok {
				c.pending[from] = append(q[:i:i], q[i+1:]...)
				return from, tv, true
			}
		}
	}
	var timeout <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for {
		select {
		case env := <-c.world.inbox[c.rank]:
			if tv, ok := env.v.(T); ok {
				return env.from, tv, true
			}
			c.pending[env.from] = append(c.pending[env.from], env.v)
		case <-timeout:
			var zero T
			return -1, zero, false
		case <-cl.Done():
			panic(fmt.Errorf("comm: wait cancelled: %w", cl.cause()))
		case <-c.world.aborted:
			panic(ErrAborted)
		}
	}
}

// Deterministic fault injection for the message-passing runtime. Long
// multi-day runs of the pipeline must survive rank failures (§5.3 persists
// intermediate artifacts for exactly this reason), so failures need to be
// reproducible test inputs rather than flakes: a Fault addresses one rank's
// c-th communication operation, an address that is a pure function of the
// program and the rank count. The supervised driver in internal/core uses
// these faults to prove that crash → restart → resume is bit-exact.

package comm

import (
	"errors"
	"fmt"
	"time"
)

// FaultKind selects what happens when a Fault fires.
type FaultKind int

const (
	// FaultCrash panics the target rank with an ErrInjected-wrapped error,
	// aborting the world — the model of a killed process.
	FaultCrash FaultKind = iota
	// FaultDelay stalls the target operation for Delay before proceeding —
	// the model of a hung or slow rank. The stall is abort-aware: if the
	// world aborts while the rank sleeps, it releases immediately with the
	// usual ErrAborted panic.
	FaultDelay
	// FaultDropRetry models a dropped-and-retransmitted message: the first
	// transmission is counted as lost (Stats.Retries), the operation waits
	// Delay for the retransmit timeout, then delivers normally. The
	// payload still arrives exactly once, so results are unchanged.
	FaultDropRetry
)

// String names the kind for logs and test output.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDelay:
		return "delay"
	case FaultDropRetry:
		return "drop-retry"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one injected failure, keyed by (Rank, Op): it fires when rank
// Rank enters its Op-th communication operation (1-based; every
// point-to-point call and collective entry advances the counter, including
// the sends and receives a collective makes and calls on a subworld Split
// derived — see Stats.Ops). Rank is the top-level world's rank number. A
// Fault whose Op is never reached does not fire.
type Fault struct {
	Rank int
	Op   int64
	Kind FaultKind
	// Delay is the stall for FaultDelay and the retransmit timeout for
	// FaultDropRetry; ignored by FaultCrash.
	Delay time.Duration
}

// String formats the fault as an address, e.g. "crash@rank1/op37".
func (f Fault) String() string {
	return fmt.Sprintf("%v@rank%d/op%d", f.Kind, f.Rank, f.Op)
}

// ErrInjected is wrapped by every failure raised by FaultCrash, so
// supervisors can tell injected crashes from organic bugs.
var ErrInjected = errors.New("comm: injected fault")

// tick advances this rank's op counter and fires any fault scheduled at the
// new index. Called on entry to every point-to-point op and collective.
func (c *Comm) tick() {
	c.stats.Ops++
	for _, f := range c.world.faults {
		if f.Rank != c.id || f.Op != c.stats.Ops {
			continue
		}
		switch f.Kind {
		case FaultCrash:
			panic(fmt.Errorf("%w: rank %d killed at op %d", ErrInjected, c.id, c.stats.Ops))
		case FaultDelay:
			c.sleep(f.Delay)
		case FaultDropRetry:
			c.stats.Retries++
			c.sleep(f.Delay)
		}
	}
}

// sleep waits for d but releases immediately (with the job-abort panic) if
// the world aborts, so a delayed rank can never outlive its world.
func (c *Comm) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.world.aborted:
		panic(ErrAborted)
	}
}

// PlanFault derives a reproducible fault from a seed: target rank, op index
// in [1, maxOp], and kind (drawn from kinds, or all three when empty) are a
// pure function of (seed, p, maxOp), so a randomized fault campaign can be
// replayed from its seed alone. The generator is an inline splitmix64 to
// keep the runtime free of PRNG dependencies.
func PlanFault(seed uint64, p int, maxOp int64, kinds ...FaultKind) Fault {
	if p <= 0 || maxOp <= 0 {
		panic(fmt.Sprintf("comm: PlanFault needs p > 0 and maxOp > 0, got %d, %d", p, maxOp))
	}
	if len(kinds) == 0 {
		kinds = []FaultKind{FaultCrash, FaultDelay, FaultDropRetry}
	}
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4b7b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	return Fault{
		Rank:  int(next() % uint64(p)),
		Op:    1 + int64(next()%uint64(maxOp)),
		Kind:  kinds[next()%uint64(len(kinds))],
		Delay: time.Millisecond,
	}
}

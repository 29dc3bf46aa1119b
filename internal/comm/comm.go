// Package comm provides an MPI-like message-passing runtime for the
// networked distributed-memory model the paper's algorithms are designed for
// (§3.1). Ranks run as goroutines with private state and communicate only
// through point-to-point sends, the collectives used by the parallel
// algorithms, and one one-sided operation, a world-shared counter (Counter).
// Every collective takes ⌈log₂ p⌉ rounds: Bcast is a binomial tree, and
// AllGather is Bruck's all-gather, under which AllGatherv, AllReduce,
// Barrier and Split are a few lines each.
//
// Every rank folds a reduction's contributions itself, in rank order, so
// reductions over floating-point or integer values are bitwise-independent
// of the number of in-flight interleavings, and the engines built on top
// produce identical results for every rank count.
//
// # Payload immutability
//
// Unlike real MPI, messages are passed by reference (the ranks share one
// address space). A value received from Recv or from any collective may be
// aliased by every other rank: treat received payloads as immutable, and
// copy before mutating (sorting a gathered slice in place, for example, is
// a data race). The same holds for what a rank sends: a peer may read it
// after the sender's call has returned, so a sender that reuses a buffer
// sends a copy of it.
package comm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// envelope is a single in-flight point-to-point message.
type envelope struct {
	from int
	v    any
}

// Stats counts traffic sent by one rank. Element counts approximate words:
// a scalar is one element, a slice contributes its length.
type Stats struct {
	Sends       int64 // point-to-point messages sent
	Elems       int64 // elements sent
	Collectives int64 // collective operations entered
	// Ops numbers every communication call this rank made (point-to-point
	// and collective entries, including the sends and receives a collective
	// makes and those on a subworld Split derived). For a fixed
	// program and rank count the sequence is deterministic, which is what
	// makes Fault.Op a reproducible address.
	Ops int64
	// Retries counts messages retransmitted after an injected drop.
	Retries int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Sends += other.Sends
	s.Elems += other.Elems
	s.Collectives += other.Collectives
	s.Ops += other.Ops
	s.Retries += other.Retries
}

// World is the shared runtime for one parallel execution.
type World struct {
	size  int
	inbox []chan envelope
	// aborted is closed when any rank fails, releasing ranks blocked in
	// communication — the MPI job-abort semantic.
	aborted   chan struct{}
	abortOnce sync.Once
	// faults is the injection plan of the top-level world (RunWithFaults),
	// which every subworld Split derives from it shares. Empty in
	// production runs.
	faults []Fault
}

// newWorld builds a world of size ranks that aborts through aborted.
func newWorld(size int, aborted chan struct{}, faults []Fault) *World {
	w := &World{size: size, inbox: make([]chan envelope, size), aborted: aborted, faults: faults}
	for i := range w.inbox {
		// A send blocks only while its receiver's inbox is full, and every
		// round of an all-gather sends before it receives, so those sends
		// must find room. No rank finishes an all-gather before every rank
		// has entered it, so at most two all-gathers' messages, 2·⌈log₂ p⌉,
		// wait for one receiver.
		w.inbox[i] = make(chan envelope, size+8)
	}
	return w
}

// endpoint returns the endpoint into w of rank, which is rank id of the
// top-level world and counts its traffic into stats.
func (w *World) endpoint(rank, id int, stats *Stats) *Comm {
	return &Comm{world: w, rank: rank, id: id, pending: make(map[int][]any), stats: stats}
}

// abort releases every blocked rank.
func (w *World) abort() { w.abortOnce.Do(func() { close(w.aborted) }) }

// ErrAborted is the panic/err value raised in ranks that were blocked in
// communication when another rank failed.
var ErrAborted = errors.New("comm: world aborted because another rank failed")

// Comm is one rank's endpoint into a World. A Comm must only be used from
// the goroutine it was handed to.
type Comm struct {
	world *World
	rank  int
	// id is the rank's number in the top-level world, the address
	// Fault.Rank names; it equals rank outside a subworld.
	id      int
	pending map[int][]any // messages received out of order, by sender
	// stats is the rank's one set of counters, shared with every endpoint
	// Split derives from this one: a rank's traffic in its subworlds is its
	// own, numbered in one op sequence.
	stats *Stats
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// Stats returns the traffic counters accumulated by this rank so far,
// including its traffic in any subworld Split derived from c.
func (c *Comm) Stats() Stats { return *c.stats }

// RankError reports a failure (error or panic) in a specific rank.
type RankError struct {
	Rank  int
	Err   error
	Stack string // non-empty if the rank panicked
}

// Error formats the failure with its rank and, for panics, the stack.
func (e *RankError) Error() string {
	if e.Stack != "" {
		return fmt.Sprintf("rank %d panicked: %v\n%s", e.Rank, e.Err, e.Stack)
	}
	return fmt.Sprintf("rank %d: %v", e.Rank, e.Err)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e *RankError) Unwrap() error { return e.Err }

// Run executes fn on p ranks concurrently and blocks until all complete.
// It returns the per-rank traffic stats and the lowest-rank error, if any.
// A panic inside a rank is recovered and reported as a RankError.
func Run(p int, fn func(*Comm) error) ([]Stats, error) {
	return RunWithFaults(p, nil, fn)
}

// RunWithFaults is Run with a deterministic fault plan injected: each Fault
// fires when its target rank reaches the fault's op index (see Fault and
// Stats.Ops). A communicator created by Split shares its rank's faults and
// op counter, so a fault addresses ops inside a subworld like any other.
func RunWithFaults(p int, faults []Fault, fn func(*Comm) error) ([]Stats, error) {
	if p <= 0 {
		return nil, fmt.Errorf("comm: rank count %d must be positive", p)
	}
	w := newWorld(p, make(chan struct{}), faults)
	errs := make([]error, p)
	stats := make([]Stats, p)
	var wg sync.WaitGroup
	for k := 0; k < p; k++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.endpoint(rank, rank, &Stats{})
			defer func() {
				stats[rank] = *c.stats
				if r := recover(); r != nil {
					if err, ok := r.(error); ok && errors.Is(err, ErrAborted) {
						errs[rank] = &RankError{Rank: rank, Err: ErrAborted}
					} else {
						// Keep the panic value's error chain intact so
						// supervisors can errors.Is/As through the
						// RankError (ErrInjected, failpoint sentinels).
						err, ok := r.(error)
						if !ok {
							err = fmt.Errorf("%v", r)
						}
						errs[rank] = &RankError{
							Rank:  rank,
							Err:   err,
							Stack: string(debug.Stack()),
						}
					}
					w.abort()
				}
			}()
			if err := fn(c); err != nil {
				errs[rank] = &RankError{Rank: rank, Err: err}
				w.abort()
			}
		}(k)
	}
	wg.Wait()
	// Prefer the originating failure over cascaded aborts.
	var abortErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) {
			if abortErr == nil {
				abortErr = err
			}
			continue
		}
		return stats, err
	}
	return stats, abortErr
}

// Self returns the endpoint of a one-rank world that needs no Run: the world
// a sequential caller is. Every collective on it is the general code at size
// 1 — it returns its input, sends nothing, and still counts its ops — so an
// engine written against a *Comm has no second, comm-less code path. Nothing
// recovers a panic raised on it; a caller that wants a rank failure, an
// injected fault or a cancellation as an error uses Run(1, …).
func Self() *Comm { return newWorld(1, make(chan struct{}), nil).endpoint(0, 0, &Stats{}) }

// elems counts the elements of a payload: payload items, where a slice,
// array or string counts its length and any other value 1. It does not
// count words: a slice of structs counts one element per struct.
func elems(v any) int64 {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array, reflect.String:
		return int64(rv.Len())
	default:
		return 1
	}
}

// Send delivers v to rank `to`. Sending to oneself is allowed and is received
// by a matching Recv.
func Send[T any](c *Comm, to int, v T) { send(c, to, v, elems(v)) }

// send delivers v to rank `to` as one message of n elements.
func send(c *Comm, to int, v any, n int64) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d of %d", to, c.world.size))
	}
	c.tick()
	c.stats.Sends++
	c.stats.Elems += n
	select {
	case c.world.inbox[to] <- envelope{from: c.rank, v: v}:
	case <-c.world.aborted:
		panic(ErrAborted)
	}
}

// Recv blocks until a message from rank `from` arrives and returns it.
// Messages from other senders that arrive in the meantime are stashed and
// delivered to later Recv calls in arrival order.
func Recv[T any](c *Comm, from int) T {
	c.tick()
	if q := c.pending[from]; len(q) > 0 {
		v := q[0]
		c.pending[from] = q[1:]
		return v.(T)
	}
	for {
		var env envelope
		select {
		case env = <-c.world.inbox[c.rank]:
		case <-c.world.aborted:
			panic(ErrAborted)
		}
		if env.from == from {
			return env.v.(T)
		}
		c.pending[env.from] = append(c.pending[env.from], env.v)
	}
}

// Bcast distributes root's value to every rank along a binomial tree and
// returns it. The v argument is ignored on non-root ranks.
func Bcast[T any](c *Comm, root int, v T) T {
	c.tick()
	c.stats.Collectives++
	p := c.world.size
	vr := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			parent := (vr - mask + root) % p
			v = Recv[T](c, parent)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < p {
			child := (vr + mask + root) % p
			Send(c, child, v)
		}
	}
	return v
}

// AllGather collects one value from every rank on every rank, ordered by
// rank, in Bruck's ⌈log₂ p⌉ rounds: rank r holds the values of ranks r,
// r+1, … (mod p), and at distance d = 1, 2, 4, … it sends the first
// min(d, p−d) of them to rank r−d and appends as many from rank r+d. Every
// value reaches every other rank exactly once, so the world makes
// p·⌈log₂ p⌉ sends carrying (p−1)·Σ elems elements, whatever the values'
// sizes; a message counts the elements of the values it carries.
func AllGather[T any](c *Comm, v T) []T {
	c.tick()
	c.stats.Collectives++
	p, r := c.world.size, c.rank
	held := make([]T, 1, p)
	held[0] = v
	for d := 1; d < p; d <<= 1 {
		out := held[:min(d, p-d)]
		var n int64
		for _, x := range out {
			n += elems(x)
		}
		send(c, (r-d+p)%p, out, n)
		held = append(held, Recv[[]T](c, (r+d)%p)...)
	}
	all := make([]T, p)
	for i, x := range held {
		all[(r+i)%p] = x
	}
	return all
}

// AllReduce folds the per-rank values with op in ascending rank order and
// returns the result on every rank. Every rank folds the gathered values
// itself, left to right, so op need not be associative, and floating-point
// reductions are deterministic.
func AllReduce[T any](c *Comm, v T, op func(T, T) T) T {
	vs := AllGather(c, v)
	acc := vs[0]
	for _, x := range vs[1:] {
		acc = op(acc, x)
	}
	return acc
}

// Barrier blocks until all ranks have entered it: an all-gather of nothing.
func Barrier(c *Comm) { AllGather(c, struct{}{}) }

// AllGatherv concatenates the per-rank slices in rank order on every rank;
// it returns nil when every slice is empty.
func AllGatherv[T any](c *Comm, v []T) []T {
	return slices.Concat(AllGather(c, v)...)
}

// BlockRange returns the half-open index range [lo, hi) of block `rank` when
// n items are partitioned into `size` nearly equal contiguous blocks, with
// the first n mod size blocks one longer. It is the canonical partition used
// by every parallel phase, so work distribution and random-stream
// distribution always line up (§4.2).
func BlockRange(n, size, rank int) (lo, hi int) {
	base := n / size
	rem := n % size
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

// Split partitions the ranks into disjoint subgroups by color and returns a
// subgroup communicator (the MPI_Comm_split pattern): ranks sharing a color
// form a new world, renumbered 0…k−1 in parent-rank order. The subworld
// shares the parent's abort channel, so a failure anywhere still releases
// every blocked rank, and its fault plan; each endpoint counts into its
// rank's Stats, so Fault{Rank, Op} keeps addressing the top-level rank's
// one op sequence. Collective over the parent communicator.
func Split(c *Comm, color int) *Comm {
	colors := AllGather(c, color)
	var members []int
	for rank, col := range colors {
		if col == color {
			members = append(members, rank)
		}
	}
	myNewRank := 0
	for i, rank := range members {
		if rank == c.rank {
			myNewRank = i
		}
	}
	var w *World
	if members[0] == c.rank {
		w = newWorld(len(members), c.world.aborted, c.world.faults)
		for _, rank := range members[1:] {
			Send(c, rank, w)
		}
	} else {
		w = Recv[*World](c, members[0])
	}
	return w.endpoint(myNewRank, c.id, c.stats)
}

// Counter is a world-shared integer the ranks advance one-sidedly: the
// analogue of MPI_Fetch_and_op on a one-word window that rank 0 hosts. Next
// hands out 0, 1, 2, … over all ranks of the world, each value exactly once,
// to whichever rank arrives first — so, unlike every collective, which rank
// gets which value depends on scheduling.
type Counter struct{ n atomic.Int64 }

// NewCounter returns a counter at 0 shared by every rank of c's world.
// Collective over c: rank 0 allocates it and broadcasts it.
func NewCounter(c *Comm) *Counter {
	var ct *Counter
	if c.rank == 0 {
		ct = &Counter{}
	}
	return Bcast(c, 0, ct)
}

// Next returns the counter's value and increments it, atomically over the
// world, without waiting for any peer; c is the calling rank's endpoint into
// the counter's world. It is one addressable op (a Fault fires at it),
// counted as one send of one element — the request a remote fetch-and-add
// makes. A rank of an aborted world is released from it with ErrAborted.
func (ct *Counter) Next(c *Comm) int {
	c.tick()
	c.stats.Sends++
	c.stats.Elems++
	select {
	case <-c.world.aborted:
		panic(ErrAborted)
	default:
	}
	return int(ct.n.Add(1) - 1)
}

// Package rank holds the per-rank run context: how one rank of a world
// executes a task. The engine packages' Params say what to learn; nothing in
// a Context can change the learned network (DESIGN §21).
package rank

import (
	"parsimone/internal/comm"
	"parsimone/internal/obs"
	"parsimone/internal/trace"
)

// Context is one rank's view of a run; core builds one per rank. All ranks
// of a world must agree on whether Hooks is observed: the split phase gathers
// a rank summary when it is, so a mixed world would deadlock like any other
// disagreement on a collective.
type Context struct {
	// Comm is the rank's endpoint in its world.
	Comm *comm.Comm
	// Workers is W, the intra-rank worker goroutines a distributed
	// evaluation is fanned over (internal/pool); 0 or 1 means serial.
	Workers int
	// Hooks are the rank's accounting sinks — events, metrics and the work
	// record; nil disables all three.
	Hooks *obs.Hooks
	// Cancel is the rank's cooperative cancellation signal, polled at
	// deterministic program points (DESIGN §13); nil never cancels.
	Cancel *comm.Canceler
}

// Self is the context of a sequential call: the one-rank world, serial,
// unobserved, never cancelled, recording into wl (nil disables).
func Self(wl *trace.Workload) Context {
	return Context{Comm: comm.Self(), Hooks: obs.NewHooks(nil, nil, wl)}
}

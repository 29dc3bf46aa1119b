// Seeded detreach cases: a package named after a deterministic package
// whose exported entry points reach wallclock/PRNG/env sinks through
// helpers in another package.
package core

import (
	"os"
	"time"

	"sinklib"
)

// Learn reaches time.Now three hops down, across the package boundary:
// Learn → helper → sinklib.Indirect → sinklib.Stamp → time.Now.
func Learn() int64 {
	return helper() // want "Learn reaches time.Now: core.Learn → core.helper → sinklib.Indirect → sinklib.Stamp → time.Now"
}

// helper is unexported: not an entry point itself, so the finding anchors
// at Learn's call above.
func helper() int64 { return sinklib.Indirect() }

// Env reaches the process environment directly.
func Env() string {
	return os.Getenv("HOME") // want "Env reaches os.Getenv"
}

// Closure leaks the taint through an escaping function value: the ref
// edge at the literal connects the entry point to the chain.
func Closure() func() int64 {
	return func() int64 { return sinklib.Stamp() } // want "Closure reaches time.Now"
}

// AuditedHop takes the tainted dependency at an audited call site: the
// suppression on the line above is the taint barrier.
func AuditedHop() int64 {
	//parsivet:wallclock — audited: timing report only, never feeds learned state (testdata)
	return helper()
}

// Now reads the wallclock itself: the direct rule reports the call where
// it is written, and the one-hop chain is not reported a second time.
func Now() int64 {
	return time.Now().UnixNano() // want "time.Now is a wallclock read"
}

// AuditedSink calls the helper whose wallclock read carries the audited
// //parsivet:wallclock; the chain is broken at the sink, so the entry
// point is clean without its own annotation.
func AuditedSink() int64 { return sinklib.Audited() }

// Clean never reaches a sink.
func Clean(x int) int { return sinklib.Pure(x) + 1 }

// Package sinklib is a non-deterministic, non-exempt helper package: the
// kind of utility code a deterministic package may innocently call into.
// Only its direct clock read is flagged — the package is not in the
// deterministic set — but its functions taint callers across the package
// boundary.
package sinklib

import "time"

// Stamp reads the wallclock directly.
func Stamp() int64 { return time.Now().UnixNano() } // want "time.Now is a wallclock read"

// Indirect reaches the wallclock one hop down.
func Indirect() int64 { return Stamp() }

// Audited reads the wallclock at an audited site; the same annotation is
// a taint barrier, so callers stay clean.
func Audited() int64 {
	//parsivet:wallclock — audited harness timing, never feeds learned state (testdata)
	return time.Now().UnixNano()
}

// Pure is a clean helper.
func Pure(x int) int { return x * 2 }

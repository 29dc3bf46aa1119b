package detreach_test

import (
	"testing"

	"parsimone/internal/analysis/analysistest"
	"parsimone/internal/analysis/detreach"
)

// TestDetReach proves the analyzer follows taint across package
// boundaries: exported entry points of a deterministic package reaching
// wallclock/env sinks through a helper package are flagged with the full
// call path, while audited hops (//parsivet:wallclock on the call or at
// the sink) and pure chains stay silent, and a one-hop clock read is
// reported once, where it is written. The sinklib package loads first so
// core can import it by bare name.
func TestDetReach(t *testing.T) {
	analysistest.RunPackages(t, detreach.Analyzer, "sinklib", "core")
}

// TestPRNGOnly proves the analyzer flags seeded math/rand and crypto/rand
// imports and wallclock reads, and accepts //parsivet:wallclock sites and
// timer construction.
func TestPRNGOnly(t *testing.T) { analysistest.Run(t, detreach.Analyzer, "engine") }

// TestExemptPackage proves the obs/trace/bench allowlist: a package named
// obs may read the wallclock freely.
func TestExemptPackage(t *testing.T) { analysistest.Run(t, detreach.Analyzer, "obs") }

// TestWirePackage proves the serialization codecs are not exempt: encoded
// bytes must be a pure function of the encoded values.
func TestWirePackage(t *testing.T) { analysistest.Run(t, detreach.Analyzer, "wire") }

// TestJobsPackage proves the supervised job runtime is not exempt either:
// its budget/report timing must carry audited //parsivet:wallclock
// annotations, while timers and sleeps (deterministic backoff) pass freely.
func TestJobsPackage(t *testing.T) { analysistest.Run(t, detreach.Analyzer, "jobs") }

// Command parsivet is the repo's determinism linter: a multichecker of
// seven analyzers, one per contract, that statically enforce the
// invariants the reproduction's bit-identity guarantee rests on (see
// internal/analysis):
//
//	maporder    — no unordered map iteration in deterministic packages
//	floateq     — no raw float ==/!= outside internal/score's quantizers
//	seqcount    — no ad-hoc goroutines bypassing internal/pool
//	scorekernel — no direct math.Lgamma outside internal/score's LogML
//	              kernels, and no math.Exp in deterministic packages
//	detreach    — stochastic draws only via internal/prng, no wallclock
//	              reads, and no deterministic entry point transitively
//	              reaches a wallclock/PRNG/env sink
//	commreach   — no rank-guarded call is or transitively reaches a comm
//	              collective
//	errsink     — no comm/wire/checkpoint error discarded, directly or
//	              along an interprocedural propagation chain
//
// The first four are per-package syntactic checks; the last three build a
// static call graph over every loaded package (internal/analysis/callgraph)
// and propagate taint across package boundaries, so their findings carry
// the full call path from entry point to sink.
//
// Usage:
//
//	parsivet [-json] [-strict-suppressions] [-time] [packages]
//
// Packages default to ./... . Exit status is 0 when clean, 1 when findings
// remain, 2 on a load or usage error. Findings are silenced per site with
// //parsivet:<keyword> comments on the flagged line or the line above;
// several keywords share one comment separated by commas
// (see internal/analysis for the convention).
//
// -strict-suppressions additionally flags every //parsivet: comment that no
// analyzer consulted during the run — stale annotations that outlived the
// code they audited — and comments naming unknown keywords. These findings
// carry the analyzer name "suppressions" and cannot themselves be
// suppressed.
//
// -time prints the lint wall time to stderr when the run completes.
//
// With -json, findings are a JSON array on stdout; each element is
//
//	{
//	  "file":     "internal/ganesh/ganesh.go",  // path as loaded
//	  "line":     42,                           // 1-based
//	  "column":   7,                            // 1-based, in bytes
//	  "analyzer": "maporder",                   // which check fired
//	  "suppress": "ordered",                    // keyword that would silence it (omitted when none)
//	  "message":  "map iteration over ..."      // human-readable finding
//	}
//
// sorted by file, line, column, then analyzer. A clean run emits [].
//
// parsivet is wired into `make lint` (and thence the tier1 gate) as a
// standalone driver rather than a `go vet -vettool`: the vettool protocol
// needs the x/tools unitchecker, and this repository builds with the
// standard library only, no module downloads. The analyzer surface mirrors
// x/tools go/analysis, so migrating to a vettool later is mechanical.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parsimone/internal/analysis"
	"parsimone/internal/analysis/commreach"
	"parsimone/internal/analysis/detreach"
	"parsimone/internal/analysis/errsink"
	"parsimone/internal/analysis/floateq"
	"parsimone/internal/analysis/maporder"
	"parsimone/internal/analysis/scorekernel"
	"parsimone/internal/analysis/seqcount"
)

var analyzers = []*analysis.Analyzer{
	maporder.Analyzer,
	floateq.Analyzer,
	seqcount.Analyzer,
	scorekernel.Analyzer,
	detreach.Analyzer,
	commreach.Analyzer,
	errsink.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("parsivet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	strict := fs.Bool("strict-suppressions", false, "also flag stale and unknown //parsivet: comments")
	timed := fs.Bool("time", false, "print lint wall time to stderr")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: parsivet [-json] [-strict-suppressions] [-time] [packages]")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), "\nanalyzers:")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-11s %s (suppress: //parsivet:%s)\n", a.Name, a.Doc, a.Suppress)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	//parsivet:wallclock — lint harness timing for the -time flag, reported to the operator, never part of analysis results
	start := time.Now()
	var diags []analysis.Diagnostic
	var err error
	if *strict {
		diags, err = analysis.RunStrict(patterns, analyzers)
	} else {
		diags, err = analysis.Run(patterns, analyzers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *timed {
		//parsivet:wallclock — same harness timing readout
		fmt.Fprintf(os.Stderr, "parsivet: %d finding(s) in %.2fs\n", len(diags), time.Since(start).Seconds())
	}
	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else if err := analysis.WriteText(os.Stderr, diags); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// Package detreach forces every stochastic draw through internal/prng and
// keeps host state out of the deterministic packages: all ranks replay one
// MRG3 substream schedule derived from the run seed, and a host-PRNG draw,
// wallclock read, or environment read feeding a decision silently forks
// it. Two rules:
//
//   - Direct: outside the wallclock-exempt packages (obs, trace, bench —
//     their timestamps never feed learned-network state), an import of
//     math/rand, math/rand/v2 or crypto/rand, and a time.Now/Since/Until
//     call, are flagged where they are written. Test files are never
//     loaded by the parsivet driver.
//   - Reach: no exported entry point of a deterministic package
//     (analysis.DeterministicPackages) may transitively reach a sink. The
//     whole-program call graph is walked backward from the sinks, and the
//     full chain is reported on the first call inside the entry point's
//     body, where the deterministic package takes the tainted dependency.
//     A one-hop clock read is the direct rule's finding, not reported again.
//
// Audited sites (harness timing in cmd/benchtab and examples, the job
// runtime's report timing) carry //parsivet:wallclock; on a call site the
// annotation is also a taint barrier, as are the exempt packages.
package detreach

import (
	"go/ast"
	"go/types"
	"strconv"

	"parsimone/internal/analysis"
	"parsimone/internal/analysis/callgraph"
)

// Analyzer is the detreach check.
var Analyzer = &analysis.Analyzer{
	Name:       "detreach",
	Doc:        "flags host-PRNG imports and wallclock reads outside obs/trace/bench, and deterministic entry points that transitively reach wallclock/PRNG/env sinks",
	Suppress:   "wallclock",
	RunProgram: run,
}

// sinkFuncs are the host-nondeterminism entry points by fully qualified
// name.
var sinkFuncs = map[string]bool{
	"time.Now":     true,
	"time.Since":   true,
	"time.Until":   true,
	"os.Getenv":    true,
	"os.LookupEnv": true,
	"os.Environ":   true,
	"os.Hostname":  true,
	"os.Getpid":    true,
}

// sinkPkgs are the host-PRNG packages internal/prng replaces: importing
// one is flagged, and any call into one is a sink.
var sinkPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

func isSink(n *callgraph.Node) bool {
	if n.Func == nil {
		return false
	}
	if n.Pkg != nil && sinkPkgs[n.Pkg.Path()] {
		return true
	}
	return sinkFuncs[n.Func.FullName()]
}

// isClockRead reports whether fn is one of the time package's sinks, the
// calls the direct rule flags where they are written.
func isClockRead(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && sinkFuncs[fn.FullName()]
}

func run(pass *analysis.ProgramPass) error {
	for _, pkg := range pass.Program.Packages {
		if !analysis.WallclockExempt[pkg.Types.Name()] {
			direct(pass, pkg)
		}
	}
	g := callgraph.Of(pass.Program)
	r := g.Reach(callgraph.ReachOpts{
		Sink: isSink,
		SkipNode: func(n *callgraph.Node) bool {
			return n.Pkg != nil && analysis.WallclockExempt[n.Pkg.Name()]
		},
		SkipEdge: func(caller *callgraph.Node, e callgraph.Edge) bool {
			return pass.SuppressedAt(e.Site, "wallclock")
		},
	})
	for _, n := range g.Nodes() {
		if n.Func == nil || !n.Func.Exported() || !analysis.IsDeterministic(n.Pkg) {
			continue
		}
		path := r.Path(n)
		if len(path) == 0 {
			continue
		}
		sink := path[len(path)-1].Callee
		if len(path) == 1 && path[0].Kind == callgraph.Static && isClockRead(sink.Func) {
			continue // the direct rule's finding
		}
		pass.Reportf(path[0].Site,
			"deterministic entry point %s reaches %s: %s; a wallclock/PRNG/env read forks the replicated decision schedule — break the chain or annotate the audited hop //parsivet:wallclock",
			n.Name, sink.Name, r.PathString(n))
	}
	return nil
}

// direct reports pkg's host-PRNG imports and clock reads where they are
// written.
func direct(pass *analysis.ProgramPass, pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && sinkPkgs[path] {
				pass.Reportf(imp.Pos(),
					"import of %s bypasses internal/prng: all stochastic draws must come from the run seed's MRG3 substreams",
					path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := callgraph.StaticCallee(pkg.Info, call); isClockRead(fn) {
				pass.Reportf(call.Pos(),
					"%s is a wallclock read outside obs/trace/bench: deterministic code must not observe time; annotate //parsivet:wallclock if this is audited harness timing",
					fn.FullName())
			}
			return true
		})
	}
}

// Package errsink tracks comm/wire/checkpoint errors along interprocedural
// propagation chains and flags the site where one is discarded, since a
// swallowed checkpoint error turns a recoverable crash into a corrupt
// resume. The direct shape — a bare statement dropping the error of a comm
// run-loop or checkpoint helper — is the one-hop chain; once the error has
// been propagated up one level (a loader that returns wire.DecodeFile's
// error, a resume path that returns the checkpoint reader's), only the
// whole-program view still knows the discarded error decides resume safety.
//
// A function is an error origin if it is declared in comm or wire, or its
// name names durable state (checkpoint/progress/manifest), and its last
// result is error. A function is a carrier if its last result is error and
// it reaches an origin through a chain of error-returning functions — the
// only chains an error value can actually travel. Discarding an origin's or
// a carrier's error — a bare call statement, defer, go, or a blank
// identifier in the error position of an assignment — is reported with the
// propagation chain.
package errsink

import (
	"go/ast"
	"go/types"
	"regexp"

	"parsimone/internal/analysis"
	"parsimone/internal/analysis/callgraph"
)

// Analyzer is the errsink check.
var Analyzer = &analysis.Analyzer{
	Name:       "errsink",
	Doc:        "flags discarded errors that interprocedurally originate from comm/wire/checkpoint I/O",
	Suppress:   "errsink",
	RunProgram: run,
}

// checkpointName matches the durable-state helpers whose errors are
// origins by name.
var checkpointName = regexp.MustCompile(`(?i)checkpoint|progress|manifest`)

// sigReturnsError reports whether sig's last result is error.
func sigReturnsError(sig *types.Signature) bool {
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// isOrigin reports whether n's error result is born in comm/wire/
// checkpoint I/O.
func isOrigin(n *callgraph.Node) bool {
	if n.Func == nil || !sigReturnsError(n.Sig) {
		return false
	}
	return analysis.InPackage(n.Pkg, "comm") || analysis.InPackage(n.Pkg, "wire") ||
		checkpointName.MatchString(n.Func.Name())
}

func run(pass *analysis.ProgramPass) error {
	g := callgraph.Of(pass.Program)
	carrier := g.Reach(callgraph.ReachOpts{
		Sink: isOrigin,
		// An error can only travel up a chain of error-returning
		// functions; a function that handles (or panics on) the error
		// internally ends the chain.
		SkipNode: func(n *callgraph.Node) bool { return !sigReturnsError(n.Sig) },
		SkipEdge: func(caller *callgraph.Node, e callgraph.Edge) bool {
			return pass.SuppressedAt(e.Site, "errsink")
		},
		// Referencing a function value does not propagate its error —
		// wherever the value is called does.
		SkipRefs: true,
	})
	// flagged resolves a call to its callee node when discarding that
	// callee's error loses a comm/wire/checkpoint failure. Every origin and
	// carrier returns error, so the node's last result is the one dropped.
	flagged := func(info *types.Info, call *ast.CallExpr) *callgraph.Node {
		if n := g.NodeOf(callgraph.StaticCallee(info, call)); n != nil && carrier.Reaches(n) {
			return n
		}
		return nil
	}
	report := func(pos ast.Node, n *callgraph.Node) {
		pass.Reportf(pos.Pos(),
			"error from %s discarded: it propagates comm/wire/checkpoint failures (%s) that decide abort and resume safety; handle it or annotate //parsivet:errsink",
			n.Name, carrier.PathString(n))
	}
	for _, pkg := range pass.Program.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.ExprStmt:
					if call, ok := x.X.(*ast.CallExpr); ok {
						if n := flagged(pkg.Info, call); n != nil {
							report(x, n)
						}
					}
				case *ast.DeferStmt:
					if n := flagged(pkg.Info, x.Call); n != nil {
						report(x, n)
					}
				case *ast.GoStmt:
					if n := flagged(pkg.Info, x.Call); n != nil {
						report(x, n)
					}
				case *ast.AssignStmt:
					for i, rhs := range x.Rhs {
						call, ok := ast.Unparen(rhs).(*ast.CallExpr)
						if !ok {
							continue
						}
						n := flagged(pkg.Info, call)
						if n == nil {
							continue
						}
						// Single call expanding to all LHS positions, or a
						// parallel assignment pairing Lhs[i] with Rhs[i].
						lhs := x.Lhs
						if len(x.Rhs) > 1 {
							if i >= len(lhs) {
								continue
							}
							lhs = lhs[i : i+1]
						}
						// The error is the last result; with a parallel
						// assignment the single LHS holds it directly.
						errPos := len(lhs) - 1
						if len(x.Rhs) == 1 && len(lhs) != n.Sig.Results().Len() {
							continue
						}
						if id, ok := lhs[errPos].(*ast.Ident); ok && id.Name == "_" {
							report(x, n)
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

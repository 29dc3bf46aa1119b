// Package commreach enforces the symmetry contract of the comm
// collectives: every rank of a communicator must reach every collective
// call the same number of times, in the same order. A call under a
// rank-dependent conditional must not lead — directly or through any chain
// of client functions — to a comm collective: the guarded ranks enter the
// collective while the rest never arrive, the deadlock shape the per-rank
// op counter of the fault layer can only detect at runtime, after the hang.
// Point-to-point Send/Recv are exempt: root-sends/leaf-receives are
// naturally rank-conditional.
//
// The analysis has two halves. A whole-program backward pass marks every
// function in comm's client set that transitively reaches a collective
// ("collective-bearing"), the collectives themselves included; comm's own
// internals are excluded — implementing a collective out of
// rank-asymmetric sends is the package's job, and its symmetry is the fault
// layer's runtime contract. Then every file outside comm is scanned for
// rank-guarded regions, and each guarded call to a collective-bearing
// function is reported with the chain from callee to collective: a
// collective written directly in the guarded branch has the one-element
// chain comm.Barrier.
package commreach

import (
	"go/ast"
	"go/types"
	"strings"

	"parsimone/internal/analysis"
	"parsimone/internal/analysis/callgraph"
)

// Analyzer is the commreach check.
var Analyzer = &analysis.Analyzer{
	Name:       "commreach",
	Doc:        "flags rank-guarded calls to comm collectives or to functions that transitively reach one",
	Suppress:   "commreach",
	RunProgram: run,
}

// collectives are the comm entry points every rank must reach in lockstep.
// Counter.Next is not one: how often a rank takes from a shared counter
// depends on scheduling by design.
var collectives = map[string]bool{
	"Bcast":      true,
	"AllGather":  true,
	"AllGatherv": true,
	"AllReduce":  true,
	"Barrier":    true,
	"Split":      true,
	"NewCounter": true,
}

// isCollective reports whether fn is one of the comm collectives every
// rank must reach in lockstep.
func isCollective(fn *types.Func) bool {
	return fn != nil && collectives[fn.Name()] && analysis.InPackage(fn.Pkg(), "comm")
}

func run(pass *analysis.ProgramPass) error {
	g := callgraph.Of(pass.Program)
	bearing := g.Reach(callgraph.ReachOpts{
		Sink: func(n *callgraph.Node) bool { return isCollective(n.Func) },
		SkipNode: func(n *callgraph.Node) bool {
			return analysis.InPackage(n.Pkg, "comm") && !isCollective(n.Func)
		},
		SkipEdge: func(caller *callgraph.Node, e callgraph.Edge) bool {
			return pass.SuppressedAt(e.Site, "commreach")
		},
	})
	for _, pkg := range pass.Program.Packages {
		if analysis.InPackage(pkg.Types, "comm") {
			continue
		}
		for _, f := range pkg.Files {
			guarded := rankGuarded(f)
			if len(guarded) == 0 {
				continue
			}
			ast.Inspect(f, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				n := g.NodeOf(callgraph.StaticCallee(pkg.Info, call))
				if n == nil || !bearing.Reaches(n) {
					return true
				}
				for _, gd := range guarded {
					if gd.Pos() <= call.Pos() && call.End() <= gd.End() {
						pass.Reportf(call.Pos(),
							"call to %s under a rank-dependent conditional reaches a collective: %s; every rank must reach the collective or the guarded ranks deadlock — restructure or annotate //parsivet:commreach",
							n.Name, bearing.PathString(n))
						break
					}
				}
				return true
			})
		}
	}
	return nil
}

// rankGuarded collects the body extents of every rank-dependent if/switch
// in f: the regions where a call is only executed by some ranks.
func rankGuarded(f *ast.File) []ast.Node {
	var guarded []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if rankDependent(n.Cond) {
				guarded = append(guarded, n.Body)
				if n.Else != nil {
					guarded = append(guarded, n.Else)
				}
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && rankDependent(n.Tag) {
				guarded = append(guarded, n.Body)
			}
		}
		return true
	})
	return guarded
}

// rankDependent reports whether cond's value depends on the caller's rank:
// it reads an identifier named like "rank" — a (*comm.Comm).Rank call,
// rank, myRank. A name containing "ranks" is a world size, which every
// rank holds equal.
func rankDependent(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if name := strings.ToLower(id.Name); strings.Contains(name, "rank") && !strings.Contains(name, "ranks") {
				found = true
			}
		}
		return !found
	})
	return found
}

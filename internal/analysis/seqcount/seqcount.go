// Package seqcount flags `go` statements inside the deterministic
// packages. All intra-rank parallelism must flow through internal/pool,
// whose workers partition index ranges deterministically and report the
// per-worker counters the pool cost and worker-imbalance readings use; an
// ad-hoc goroutine bypasses both — its interleaving is scheduler-dependent
// and its work is invisible to the rank's accounting. Audited launches (none
// today) carry //parsivet:seqcount.
package seqcount

import (
	"go/ast"

	"parsimone/internal/analysis"
)

// Analyzer is the seqcount check.
var Analyzer = &analysis.Analyzer{
	Name:     "seqcount",
	Doc:      "flags goroutine launches in deterministic packages that bypass internal/pool",
	Suppress: "seqcount",
	Run:      run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsDeterministic(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Go,
					"ad-hoc goroutine in deterministic package %q bypasses the internal/pool deterministic deal; use pool.For or annotate //parsivet:seqcount",
					pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}

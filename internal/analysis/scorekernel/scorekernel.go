// Package scorekernel keeps the marginal-likelihood arithmetic inside
// internal/score. The exact-bit-identity argument for the precomputed
// scoring kernel (DESIGN.md §11) holds only because every LogML evaluation
// in the repo goes through Prior.LogML, Kernel.LogML, or the exact memo in
// front of them (score.Memo), whose expression shapes are pinned against
// each other by differential tests. A direct math.Lgamma call in engine
// code is a second, unpinned spelling of the score: it can drift from the
// kernel (different expression shape, FMA contraction) and silently break
// cross-engine bit identity — and it bypasses the kernel's tables,
// re-paying the transcendental cost the hot loop was restructured to avoid.
//
// Inside internal/score itself the check is sharper: the data-dependent
// Log(βN) suffix (and every other math.Log/math.Lgamma of the score) may be
// spelled only in Prior.LogML, Kernel.LogML, the table builder NewKernel
// and newLogTable, which fills the approximate logarithm's table from
// math.Log. The batched evaluation Kernel.LogMLBatch spells none: its
// portable path calls Kernel.LogML and its AVX2 pass is pinned bit for bit
// against it (DESIGN.md §30). The approximate logarithm itself (fastLog) may be called only
// from Kernel.SplitImproves: its error is budgeted there and nowhere else
// (DESIGN.md §23), so a second caller would be a score that is merely close.
// The memo cache (Memo.LogML) is permitted to SERVE logML values precisely
// because it computes none — it delegates every miss to Kernel.LogML and
// replays the resulting bits — so a logarithm of either kind appearing in it
// (or any future score helper) is flagged.
//
// The exponential has one spelling in every deterministic package: score's
// own exp, math/exp_amd64.s's FMA branch in pure Go (DESIGN §31). math.Exp
// runs a different instruction sequence on an amd64 CPU without FMA and on
// other GOARCHes, so a math.Exp call in code that feeds the network would
// make the bits a function of the host; any call there is flagged.
// Deliberate exceptions carry //parsivet:scorekernel with a justification.
package scorekernel

import (
	"go/ast"
	"go/types"

	"parsimone/internal/analysis"
)

// Analyzer is the scorekernel check.
var Analyzer = &analysis.Analyzer{
	Name:     "scorekernel",
	Doc:      "flags direct math.Lgamma calls outside internal/score, math.Log/math.Lgamma/fastLog outside the pinned LogML kernels and the certified split decision within it, and math.Exp in the deterministic packages",
	Suppress: "scorekernel",
	Run:      run,
}

// scoreAllowed are the functions of package score pinned by differential
// tests as the canonical spellings of the normal-gamma score. Keys are
// "Recv.Name" for methods, "Name" for functions.
var scoreAllowed = map[string]bool{
	"Prior.LogML":  true,
	"Kernel.LogML": true,
	"NewKernel":    true,
	// The certified split decision (DESIGN §23): the one caller of fastLog,
	// and the initialiser of its table.
	"Kernel.SplitImproves": true,
	"newLogTable":          true,
}

func run(pass *analysis.Pass) error {
	inScore := pass.Pkg.Name() == "score"
	deterministic := analysis.IsDeterministic(pass.Pkg)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fd.Body == nil {
				return false
			}
			// The sanctioned kernel spellings may take logarithms; no
			// function may take math.Exp.
			kernel := inScore && scoreAllowed[funcKey(fd)]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					id = fun.Sel
				case *ast.Ident:
					id = fun
				default:
					return true
				}
				fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				switch fn.FullName() {
				case "math.Lgamma":
					if !kernel {
						pass.Reportf(call.Pos(),
							"direct math.Lgamma call outside the pinned LogML kernels: score through Prior.LogML, Kernel.LogML, or Memo.LogML so the kernel's bit-identity pinning covers it, or annotate //parsivet:scorekernel with why this evaluation is not a block score")
					}
				case "math.Log":
					if inScore && !kernel {
						pass.Reportf(call.Pos(),
							"math.Log in package score outside Prior.LogML/Kernel.LogML/NewKernel/newLogTable: the Log(βN) suffix is spelled only in the pinned kernels, and the memo stays exact only by computing none — move the arithmetic into the kernel or annotate //parsivet:scorekernel")
					}
				case "math.Exp":
					if deterministic {
						pass.Reportf(call.Pos(),
							"math.Exp in a deterministic package: its bits depend on the host (the FMA and non-FMA branches of math/exp_amd64.s, other GOARCHes) — take the exponential from score's exp (DESIGN §31) or annotate //parsivet:scorekernel")
					}
				case pass.Pkg.Path() + ".fastLog":
					if inScore && !kernel {
						pass.Reportf(call.Pos(),
							"fastLog outside Kernel.SplitImproves: the approximate logarithm's error is budgeted in the certified split decision only (DESIGN §23) — score through Kernel.LogML or annotate //parsivet:scorekernel")
					}
				}
				return true
			})
			return false
		})
	}
	return nil
}

// funcKey renders a FuncDecl as "Recv.Name" (methods, any pointerness) or
// "Name" (functions).
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

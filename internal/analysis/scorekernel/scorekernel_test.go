package scorekernel_test

import (
	"testing"

	"parsimone/internal/analysis/analysistest"
	"parsimone/internal/analysis/scorekernel"
)

// TestScoreKernel proves the analyzer flags direct math.Lgamma calls in
// engine code, leaves other math functions (math.Log, and math.Exp in a
// package outside the deterministic set) alone outside internal/score, and
// honors //parsivet:scorekernel.
func TestScoreKernel(t *testing.T) { analysistest.Run(t, scorekernel.Analyzer, "engine") }

// TestScoreInternalRules proves the sharper in-score rule in both
// directions: math.Log and math.Lgamma pass inside Prior.LogML,
// Kernel.LogML, NewKernel and newLogTable, and fastLog inside
// Kernel.SplitImproves; a logarithm of either kind in the memo, in a
// batched evaluation or in any other helper is flagged, and so is math.Exp
// anywhere in the package, the kernel spellings included, while the
// package's own exp passes.
func TestScoreInternalRules(t *testing.T) { analysistest.Run(t, scorekernel.Analyzer, "score") }

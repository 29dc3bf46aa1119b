package scorekernel_test

import (
	"testing"

	"parsimone/internal/analysis/analysistest"
	"parsimone/internal/analysis/scorekernel"
)

// TestScoreKernel proves the analyzer flags direct math.Lgamma calls in
// engine code, leaves other math functions (including math.Log) alone
// outside internal/score, and honors //parsivet:scorekernel.
func TestScoreKernel(t *testing.T) { analysistest.Run(t, scorekernel.Analyzer, "engine") }

// TestScoreInternalRules proves the sharper in-score rule in both
// directions: math.Log and math.Lgamma pass inside Prior.LogML,
// Kernel.LogML, NewKernel and newLogTable, and fastLog inside
// Kernel.SplitImproves; a logarithm of either kind in the memo, in a
// batched evaluation or in any other helper is flagged.
func TestScoreInternalRules(t *testing.T) { analysistest.Run(t, scorekernel.Analyzer, "score") }

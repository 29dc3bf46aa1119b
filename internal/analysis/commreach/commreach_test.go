package commreach_test

import (
	"testing"

	"parsimone/internal/analysis/analysistest"
	"parsimone/internal/analysis/commreach"
)

// TestCommReach proves calls taken under rank-dependent conditionals whose
// callees are or bear a collective zero, one or two hops down are flagged
// with the bearing path, while symmetric calls, world-size guards, guarded
// point-to-point traffic, and audited sites stay silent. The testdata
// imports the real parsimone/internal/comm package.
func TestCommReach(t *testing.T) {
	analysistest.RunPackages(t, commreach.Analyzer, "engine")
}

// TestCommSym proves the analyzer flags collectives written directly in
// if, else and switch branches on the rank, and accepts symmetric
// collectives, rank-guarded point-to-point traffic, and
// //parsivet:commreach.
func TestCommSym(t *testing.T) { analysistest.Run(t, commreach.Analyzer, "driver") }

package errsink_test

import (
	"testing"

	"parsimone/internal/analysis/analysistest"
	"parsimone/internal/analysis/errsink"
)

// TestErrSink proves the analyzer tracks comm/wire/checkpoint errors
// along interprocedural carrier chains: discarding an origin's error, or a
// carrier's one or two hops above the origin, is flagged with the
// propagation chain, while handled errors, internally-swallowed chains,
// and audited sites stay silent. The testdata imports the real
// parsimone/internal/wire and comm packages.
func TestErrSink(t *testing.T) {
	analysistest.RunPackages(t, errsink.Analyzer, "store")
}

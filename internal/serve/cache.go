// The exact result cache, keyed by core.RunKey. A learned network is a pure
// function of the inputs that key hashes, so two submissions with the same
// key would learn byte-identical networks and the second can be served from
// memory without a learning run, whatever rank/worker shape either
// submission asked for.

package serve

import (
	"sync"

	"parsimone/internal/core"
	"parsimone/internal/dataset"
)

// cacheEntry is one completed learning run: the inputs that keyed it and
// the output it produced. Its predictor (the training transform plus the
// executable CPDs) is built lazily on the first predict query and shared by
// every job that resolves to this entry.
type cacheEntry struct {
	key  string
	data *dataset.Data
	opt  core.Options
	out  *core.Output

	once    sync.Once
	pred    *core.Predictor
	predErr error
}

// predictor builds (once) and returns the entry's predictor.
func (e *cacheEntry) predictor() (*core.Predictor, error) {
	e.once.Do(func() {
		e.pred, e.predErr = core.NewPredictor(e.data, e.opt, e.out)
	})
	return e.pred, e.predErr
}

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
	"parsimone/internal/module"
	"parsimone/internal/score"
)

// cacheEntry is one completed learning run: the inputs that keyed it and
// the output it produced. Prediction state (executable CPDs plus the
// training standardization statistics) is assembled lazily on the first
// predict query and shared by every job that resolves to this entry.
type cacheEntry struct {
	key  string
	data *dataset.Data
	opt  core.Options
	out  *core.Output

	once sync.Once
	cpds []*module.CPD
	// mean/sd are the per-variable training statistics used to map a raw
	// observation onto the standardized scale the CPDs were learned on
	// (nil when the run did not standardize).
	mean, sd []float64
	cpdErr   error
}

// predictors builds (once) and returns the entry's executable CPDs.
func (e *cacheEntry) predictors() ([]*module.CPD, error) {
	e.once.Do(func() {
		e.cpds, e.cpdErr = core.BuildCPDs(e.data, e.opt, e.out)
		if e.cpdErr == nil && e.opt.Standardize {
			e.mean, e.sd = e.data.Moments()
		}
	})
	return e.cpds, e.cpdErr
}

// standardize maps a raw observation (length n, original scale), in place,
// onto the scale the CPDs were learned on — the training data's own
// standardization. Call after predictors.
func (e *cacheEntry) standardize(obs []float64) {
	if !e.opt.Standardize {
		return
	}
	for i, v := range obs {
		obs[i] = dataset.Standardized(v, e.mean[i], e.sd[i])
	}
}

// predict evaluates every module's CPD on one raw observation vector
// (length n, original scale). The observation is standardized with the
// training statistics and quantized exactly as the training data was, then
// routed through each module's regression-tree ensemble.
func (e *cacheEntry) predict(obs []float64) ([]ModulePrediction, error) {
	cpds, err := e.predictors()
	if err != nil {
		return nil, err
	}
	e.standardize(obs)
	q := make([]int64, len(obs))
	for i, v := range obs {
		q[i] = score.Quantize(v)
	}
	preds := make([]ModulePrediction, 0, len(cpds))
	for _, cpd := range cpds {
		mean, variance := cpd.Predict(q)
		preds = append(preds, ModulePrediction{Module: cpd.Module, Mean: mean, Variance: variance})
	}
	return preds, nil
}

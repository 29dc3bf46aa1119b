// The training transform: the one way expression values reach the scorer
// and the CPDs (DESIGN §14).

package core

import (
	"fmt"
	"math"

	"parsimone/internal/dataset"
	"parsimone/internal/module"
	"parsimone/internal/score"
)

// Transform is the training transform of a learn: each variable
// standardized with the training set's moments, then quantized. Fit maps the
// training set, Observation one raw observation, so a training column
// reaches a CPD as it reached the learner.
type Transform struct {
	mean, sd []float64
}

// Fit checks d as Learn does, fits the training transform on it, and returns
// the transform with d mapped by it: the matrix every task scores. d is not
// modified.
func Fit(d *dataset.Data) (*Transform, *score.QData, error) {
	t, err := fit(d)
	if err != nil {
		return nil, nil, err
	}
	return t, t.prepare(d), nil
}

// fit checks the O(1) shape and capacity bounds before scanning the cells,
// so an oversized data set is refused without being read. Every variable
// must also have a finite mean and standard deviation: a row whose sums
// overflow float64 (|x| ≳ 10¹⁵⁴) would otherwise standardize to all zeros or
// to NaN without a word.
func fit(d *dataset.Data) (*Transform, error) {
	if d.N < 2 || d.M < 2 {
		return nil, fmt.Errorf("core: need at least a 2×2 data set, got %d×%d", d.N, d.M)
	}
	if d.N*d.M > score.MaxBlockCells {
		return nil, fmt.Errorf("core: %d×%d = %d cells exceeds the exact-statistics capacity of %d (see score.MaxBlockCells)",
			d.N, d.M, d.N*d.M, score.MaxBlockCells)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	mean, sd := d.Moments()
	for i := range mean {
		if !finite(mean[i]) || !finite(sd[i]) {
			return nil, fmt.Errorf("core: variable %q (row %d) cannot be standardized: its mean %g or standard deviation %g overflows float64; rescale its values",
				d.Names[i], i, mean[i], sd[i])
		}
	}
	return &Transform{mean: mean, sd: sd}, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// scale maps variable i's raw value v onto the standardized scale.
func (t *Transform) scale(i int, v float64) float64 {
	return dataset.Standardized(v, t.mean[i], t.sd[i])
}

// prepare maps every cell of the data set t was fitted on.
func (t *Transform) prepare(d *dataset.Data) *score.QData {
	q := &score.QData{Cells: make([]int32, len(d.Values)), N: d.N, M: d.M}
	for i := 0; i < d.N; i++ {
		row := q.Row(i)
		for j, v := range d.Row(i) {
			row[j] = int32(score.Quantize(t.scale(i, v)))
		}
	}
	return q
}

// Observation maps one raw observation, a value per variable, onto the CPD
// input, and counts the values it clipped: those whose standardized value
// lies beyond ±score.MaxAbsValue, which Quantize maps to the bound as it
// does training cells. A wrong-length observation is refused, and so is one
// with a value that is not finite raw or standardized: a finite value far
// enough from its variable's mean, against a small standard deviation,
// overflows to ±Inf.
func (t *Transform) Observation(obs []float64) (q []int64, clipped int, err error) {
	if len(obs) != len(t.mean) {
		return nil, 0, fmt.Errorf("observation has %d values, dataset has %d variables", len(obs), len(t.mean))
	}
	q = make([]int64, len(obs))
	for i, v := range obs {
		if !finite(v) {
			return nil, 0, fmt.Errorf("observation value %d is %v, not finite", i, v)
		}
		z := t.scale(i, v)
		if !finite(z) {
			return nil, 0, fmt.Errorf("observation value %d is %g, which standardizes to %v, not finite", i, v, z)
		}
		if math.Abs(z) > score.MaxAbsValue {
			clipped++
		}
		q[i] = score.Quantize(z)
	}
	return q, clipped, nil
}

// Predictor is a learned network as an executable model (§2.1): the
// training transform and one regression-tree CPD per module.
type Predictor struct {
	Transform *Transform
	CPDs      []*module.CPD
}

// Prediction is one module's CPD evaluated on an observation.
type Prediction struct {
	Module   int     `json:"module"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
}

// NewPredictor builds the predictor of a learning output from the data set
// and the Options it was learned with.
func NewPredictor(d *dataset.Data, opt Options, out *Output) (*Predictor, error) {
	t, q, err := Fit(d)
	if err != nil {
		return nil, err
	}
	cpds, err := module.BuildCPDs(&module.Result{Modules: out.Modules, Splits: out.Splits}, q, opt.Prior)
	if err != nil {
		return nil, err
	}
	return &Predictor{Transform: t, CPDs: cpds}, nil
}

// Predict returns every module's predicted mean and variance, on the scale
// the CPDs were learned on, for one raw observation, and how many of its
// values were clipped to the quantization bound (Transform.Observation).
func (p *Predictor) Predict(obs []float64) ([]Prediction, int, error) {
	q, clipped, err := p.Transform.Observation(obs)
	if err != nil {
		return nil, 0, err
	}
	preds := make([]Prediction, len(p.CPDs))
	for k, cpd := range p.CPDs {
		mean, variance := cpd.Predict(q)
		preds[k] = Prediction{Module: cpd.Module, Mean: mean, Variance: variance}
	}
	return preds, clipped, nil
}

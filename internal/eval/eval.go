// Package eval provides the held-out evaluation harness for learned module
// networks: k-fold cross-validation over observations, scoring each fold's
// network by how well its regression-tree CPDs predict the held-out
// conditions — predicted module mean (RMSE) and Gaussian log-likelihood —
// against the global-mean baseline. This is the generalization check that
// complements the paper's run-time evaluation: the learned structures must
// carry signal, not just be computed quickly.
package eval

import (
	"fmt"
	"math"

	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/score"
)

// FoldResult is the held-out performance of one fold.
type FoldResult struct {
	Fold    int
	Modules int
	// CPDRMSE and BaselineRMSE average over modules the root-mean-square
	// error of the predicted module mean on held-out observations.
	CPDRMSE, BaselineRMSE float64
	// CPDLogLik and BaselineLogLik are mean per-cell held-out Gaussian
	// log-likelihoods.
	CPDLogLik, BaselineLogLik float64
}

// CVResult aggregates a cross-validation run.
type CVResult struct {
	Folds []FoldResult
	// Mean values across folds.
	CPDRMSE, BaselineRMSE     float64
	CPDLogLik, BaselineLogLik float64
}

// CrossValidate learns a module network on each of k training folds
// (observations held out round-robin) and evaluates the fold's CPDs on the
// held-out observations. A fold's network and training transform come from
// its training columns alone, as in Segal et al.'s held-out protocol.
func CrossValidate(d *dataset.Data, opt core.Options, k int) (*CVResult, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: need at least 2 folds, got %d", k)
	}
	if d.M < 2*k {
		return nil, fmt.Errorf("eval: %d observations cannot support %d folds", d.M, k)
	}
	cv := &CVResult{}
	for f := 0; f < k; f++ {
		trainCols, testCols := foldColumns(d.M, k, f)
		fr, _, err := fold(d, opt, trainCols, testCols)
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d: %w", f, err)
		}
		fr.Fold = f
		cv.Folds = append(cv.Folds, fr)
	}
	for _, fr := range cv.Folds {
		cv.CPDRMSE += fr.CPDRMSE
		cv.BaselineRMSE += fr.BaselineRMSE
		cv.CPDLogLik += fr.CPDLogLik
		cv.BaselineLogLik += fr.BaselineLogLik
	}
	n := float64(len(cv.Folds))
	cv.CPDRMSE /= n
	cv.BaselineRMSE /= n
	cv.CPDLogLik /= n
	cv.BaselineLogLik /= n
	return cv, nil
}

// foldColumns splits observations 0…m−1 into fold f's training and
// held-out columns: column j is held out in fold j mod k.
func foldColumns(m, k, f int) (trainCols, testCols []int) {
	for j := 0; j < m; j++ {
		if j%k == f {
			testCols = append(testCols, j)
		} else {
			trainCols = append(trainCols, j)
		}
	}
	return trainCols, testCols
}

// fold learns a network and its predictor on d's training columns and
// scores the CPDs on the held-out columns, mapped by the fold's transform,
// against the baseline of each module's training distribution.
func fold(d *dataset.Data, opt core.Options, trainCols, testCols []int) (FoldResult, *core.Output, error) {
	train, err := d.SelectObservations(trainCols)
	if err != nil {
		return FoldResult{}, nil, err
	}
	out, err := core.Learn(train, opt)
	if err != nil {
		return FoldResult{}, nil, err
	}
	p, err := core.NewPredictor(train, opt, out)
	if err != nil {
		return FoldResult{}, nil, err
	}
	cols := make([][]int64, d.M)
	raw := make([]float64, d.N)
	for j := range cols {
		for x := range raw {
			raw[x] = d.At(x, j)
		}
		if cols[j], err = p.Transform.Observation(raw); err != nil {
			return FoldResult{}, nil, err
		}
	}
	fr := FoldResult{Modules: len(p.CPDs)}
	var sumRMSEc, sumRMSEb, sumLLc, sumLLb float64
	cells := 0
	for _, cpd := range p.CPDs {
		vars := out.Modules[cpd.Module].Vars
		// Training global distribution of the module, converted under the
		// CPDs' own prior.
		var tr score.Stats
		for _, j := range trainCols {
			for _, x := range vars {
				tr.Add(cols[j][x])
			}
		}
		gMean, gVar := opt.Prior.Predictive(tr)

		var seC, seB float64
		var llC, llB float64
		for _, j := range testCols {
			obs := cols[j]
			pred, _ := cpd.Predict(obs)
			var actual float64
			for _, x := range vars {
				actual += score.Dequantize(obs[x])
			}
			actual /= float64(len(vars))
			seC += (pred - actual) * (pred - actual)
			seB += (gMean - actual) * (gMean - actual)
			for _, x := range vars {
				llC += cpd.LogLikelihood(obs, obs[x])
				llB += gaussLogLik(score.Dequantize(obs[x]), gMean, gVar)
				cells++
			}
		}
		sumRMSEc += math.Sqrt(seC / float64(len(testCols)))
		sumRMSEb += math.Sqrt(seB / float64(len(testCols)))
		sumLLc += llC
		sumLLb += llB
	}
	if k := float64(len(p.CPDs)); k > 0 {
		fr.CPDRMSE = sumRMSEc / k
		fr.BaselineRMSE = sumRMSEb / k
	}
	if cells > 0 {
		fr.CPDLogLik = sumLLc / float64(cells)
		fr.BaselineLogLik = sumLLb / float64(cells)
	}
	return fr, out, nil
}

func gaussLogLik(x, mean, variance float64) float64 {
	d := x - mean
	return -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
}

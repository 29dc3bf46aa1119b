package eval

import (
	"math"
	"testing"

	"parsimone/internal/core"
	"parsimone/internal/result"
	"parsimone/internal/splits"
	"parsimone/internal/synth"
)

func cvOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Seed = 5
	opt.Ganesh.Updates = 3
	opt.Module.Tree.Updates = 4 // 3 trees per module for the ensemble CPD
	opt.Module.Splits = splits.Params{NumSplits: 3, MaxSteps: 48}
	return opt
}

func TestCrossValidateBasic(t *testing.T) {
	d, _, err := synth.Generate(synth.Config{
		N: 60, M: 60, Modules: 3, Regulators: 5, Noise: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := CrossValidate(d, cvOptions(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 3 {
		t.Fatalf("%d folds", len(cv.Folds))
	}
	for _, fr := range cv.Folds {
		if fr.Modules == 0 {
			t.Fatalf("fold %d learned no modules", fr.Fold)
		}
		if math.IsNaN(fr.CPDRMSE) || math.IsNaN(fr.CPDLogLik) {
			t.Fatalf("fold %d has NaN metrics", fr.Fold)
		}
	}
}

// TestCrossValidateCPDBeatsBaseline: on structured data with modest noise,
// the learned CPDs must generalize — better held-out module-mean RMSE than
// the global-mean baseline, and a held-out likelihood in the same range
// (hard-routed tree CPDs are sharper per leaf, so occasional mis-routing
// costs likelihood even when point predictions improve; a catastrophic gap
// would indicate overconfident leaves or broken routing).
func TestCrossValidateCPDBeatsBaseline(t *testing.T) {
	var cpdRMSE, baseRMSE, cpdLL, baseLL float64
	seeds := []uint64{2, 3, 4}
	for _, seed := range seeds {
		d, _, err := synth.Generate(synth.Config{
			N: 60, M: 80, Modules: 3, Regulators: 5, Noise: 0.25, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cv, err := CrossValidate(d, cvOptions(), 4)
		if err != nil {
			t.Fatal(err)
		}
		cpdRMSE += cv.CPDRMSE
		baseRMSE += cv.BaselineRMSE
		cpdLL += cv.CPDLogLik
		baseLL += cv.BaselineLogLik
	}
	k := float64(len(seeds))
	cpdRMSE, baseRMSE, cpdLL, baseLL = cpdRMSE/k, baseRMSE/k, cpdLL/k, baseLL/k
	if cpdRMSE >= baseRMSE {
		t.Fatalf("mean CPD RMSE %.3f not below baseline %.3f over %d data seeds",
			cpdRMSE, baseRMSE, len(seeds))
	}
	if cpdLL < 3*baseLL {
		t.Fatalf("CPD log-lik %.3f catastrophically below baseline %.3f", cpdLL, baseLL)
	}
}

func TestCrossValidateValidation(t *testing.T) {
	d, _, err := synth.Generate(synth.Config{N: 20, M: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CrossValidate(d, cvOptions(), 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := CrossValidate(d, cvOptions(), 15); err == nil {
		t.Fatal("too many folds accepted")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	d, _, err := synth.Generate(synth.Config{N: 40, M: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := CrossValidate(d, cvOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(d, cvOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPDRMSE != b.CPDRMSE || a.CPDLogLik != b.CPDLogLik {
		t.Fatal("cross-validation not deterministic")
	}
}

// TestFoldsPartitionObservations: the k folds' held-out sets must be
// disjoint and cover every observation exactly once, and each fold trains
// on the rest.
func TestFoldsPartitionObservations(t *testing.T) {
	m, k := 23, 4
	seen := make([]int, m)
	for f := 0; f < k; f++ {
		trainCols, testCols := foldColumns(m, k, f)
		if len(trainCols)+len(testCols) != m {
			t.Fatalf("fold %d: %d training and %d held-out columns of %d", f, len(trainCols), len(testCols), m)
		}
		for _, j := range testCols {
			seen[j]++
		}
	}
	for j, c := range seen {
		if c != 1 {
			t.Fatalf("observation %d held out %d times", j, c)
		}
	}
}

// TestHeldOutColumnsDoNotReachTheFold: rewriting a fold's held-out columns
// leaves the fold's learned network unchanged — no held-out value reaches
// the moments the fold standardizes its training columns by.
func TestHeldOutColumnsDoNotReachTheFold(t *testing.T) {
	d, _, err := synth.Generate(synth.Config{N: 40, M: 30, Modules: 3, Regulators: 4, Noise: 0.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	opt := cvOptions()
	trainCols, testCols := foldColumns(d.M, 3, 0)
	_, want, err := fold(d, opt, trainCols, testCols)
	if err != nil {
		t.Fatal(err)
	}
	e := d.Clone()
	for _, j := range testCols {
		for x := 0; x < e.N; x++ {
			e.Values[x*e.M+j] = 4*e.At(x, j) + 3
		}
	}
	_, got, err := fold(e, opt, trainCols, testCols)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("rewriting the held-out columns changed the fold's network")
	}
}

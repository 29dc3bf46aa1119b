package module

import (
	"math"
	"testing"

	"parsimone/internal/prng"
	"parsimone/internal/score"
)

func learnForCPD(t *testing.T, seed uint64) (*score.QData, *Result) {
	t.Helper()
	q, moduleVars, _ := fixture(t, seed)
	res := mustLearn(t, q, score.DefaultPrior(), moduleVars, defaultParams(), prng.New(seed+50), nil)
	return q, res
}

func TestBuildCPDs(t *testing.T) {
	q, res := learnForCPD(t, 21)
	cpds, err := BuildCPDs(res, q, score.DefaultPrior())
	if err != nil {
		t.Fatal(err)
	}
	if len(cpds) != len(res.Modules) {
		t.Fatalf("%d CPDs for %d modules", len(cpds), len(res.Modules))
	}
	for mi, cpd := range cpds {
		if cpd.Module != mi || len(cpd.Roots) == 0 {
			t.Fatalf("CPD %d malformed", mi)
		}
	}
}

func TestBuildCPDNoTrees(t *testing.T) {
	if _, err := BuildCPD(0, &Module{}, nil, nil, score.DefaultPrior()); err == nil {
		t.Fatal("module without trees accepted")
	}
}

func TestCPDStructureMatchesTree(t *testing.T) {
	q, res := learnForCPD(t, 22)
	cpd, err := BuildCPD(0, res.Modules[0], res.Splits.Weighted, q, score.DefaultPrior())
	if err != nil {
		t.Fatal(err)
	}
	// Node counts of the CPD equal the source tree's.
	var count func(n *CPDNode) int
	count = func(n *CPDNode) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.Left) + count(n.Right)
	}
	src := res.Modules[0].Trees[0]
	want := len(src.InternalNodes()) + len(src.Leaves())
	if got := count(cpd.Roots[0]); got != want {
		t.Fatalf("CPD tree 0 has %d nodes, tree has %d", got, want)
	}
	if len(cpd.Roots) != len(res.Modules[0].Trees) {
		t.Fatalf("CPD has %d trees, module has %d", len(cpd.Roots), len(res.Modules[0].Trees))
	}
	if cpd.Roots[0].IsLeaf() {
		t.Fatal("expected a non-trivial tree")
	}
}

func TestCPDLeafDistributionsFinite(t *testing.T) {
	q, res := learnForCPD(t, 23)
	cpds, err := BuildCPDs(res, q, score.DefaultPrior())
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *CPDNode)
	walk = func(n *CPDNode) {
		if n == nil {
			return
		}
		if math.IsNaN(n.Mean) || math.IsInf(n.Mean, 0) || n.Variance <= 0 {
			t.Fatalf("bad node distribution mean=%v var=%v", n.Mean, n.Variance)
		}
		walk(n.Left)
		walk(n.Right)
	}
	for _, cpd := range cpds {
		for _, root := range cpd.Roots {
			walk(root)
		}
	}
}

// TestCPDPredictionTracksTrainingData: routing training observations
// through the CPDs must predict module means better than the global module
// mean for at least one module — across several data seeds, since any
// single small instance can learn weak trees.
func TestCPDPredictionTracksTrainingData(t *testing.T) {
	improved := 0
	for _, seed := range []uint64{24, 25, 26} {
		q, res := learnForCPD(t, seed)
		cpds, err := BuildCPDs(res, q, score.DefaultPrior())
		if err != nil {
			t.Fatal(err)
		}
		for mi, cpd := range cpds {
			vars := res.Modules[mi].Vars
			gMean, _ := score.DefaultPrior().Predictive(statsOfModule(q, vars))
			var errCPD, errGlobal float64
			for j := 0; j < q.M; j++ {
				obs := make([]int64, q.N)
				for x := 0; x < q.N; x++ {
					obs[x] = q.At(x, j)
				}
				pred, _ := cpd.Predict(obs)
				var actual float64
				for _, x := range vars {
					actual += score.Dequantize(q.At(x, j))
				}
				actual /= float64(len(vars))
				errCPD += (pred - actual) * (pred - actual)
				errGlobal += (gMean - actual) * (gMean - actual)
			}
			if errCPD < errGlobal {
				improved++
			}
		}
	}
	if improved == 0 {
		t.Fatal("no module's CPD beats the global-mean predictor across three data seeds")
	}
}

func statsOfModule(q *score.QData, vars []int) score.Stats {
	var s score.Stats
	for _, x := range vars {
		for _, v := range q.Row(x) {
			s.Add(int64(v))
		}
	}
	return s
}

func TestCPDLogLikelihoodFinite(t *testing.T) {
	q, res := learnForCPD(t, 25)
	cpds, err := BuildCPDs(res, q, score.DefaultPrior())
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]int64, q.N)
	for x := 0; x < q.N; x++ {
		obs[x] = q.At(x, 0)
	}
	for _, cpd := range cpds {
		ll := cpd.LogLikelihood(obs, q.At(res.Modules[cpd.Module].Vars[0], 0))
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			t.Fatalf("log-likelihood %v", ll)
		}
	}
}

// TestCPDLikelihoodPrefersOwnData: a module's CPD should assign higher
// total likelihood to its own members' values than to values of an
// anti-correlated foreign module... at minimum, held-in data should beat
// random noise values.
func TestCPDLikelihoodPrefersOwnData(t *testing.T) {
	q, res := learnForCPD(t, 26)
	cpds, err := BuildCPDs(res, q, score.DefaultPrior())
	if err != nil {
		t.Fatal(err)
	}
	g := prng.New(99)
	better := 0
	for _, cpd := range cpds {
		vars := res.Modules[cpd.Module].Vars
		var llReal, llNoise float64
		for j := 0; j < q.M; j++ {
			obs := make([]int64, q.N)
			for x := 0; x < q.N; x++ {
				obs[x] = q.At(x, j)
			}
			for _, x := range vars {
				llReal += cpd.LogLikelihood(obs, q.At(x, j))
				llNoise += cpd.LogLikelihood(obs, score.Quantize(4*g.Normal()))
			}
		}
		if llReal > llNoise {
			better++
		}
	}
	if better != len(cpds) {
		t.Fatalf("only %d of %d CPDs prefer real data over noise", better, len(cpds))
	}
}

func TestPredictiveMoments(t *testing.T) {
	pr := score.DefaultPrior()
	var s score.Stats
	for i := 0; i < 100; i++ {
		s.Add(score.Quantize(2 + float64(i%3-1)))
	}
	mean, variance := pr.Predictive(s)
	// With 100 observations the predictive tracks the empirical moments.
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("mean %v", mean)
	}
	if variance <= 0 || variance > 2 {
		t.Fatalf("variance %v", variance)
	}
	// The empty block must have a broad, finite predictive.
	m0, v0 := pr.Predictive(score.Stats{})
	if math.IsNaN(m0) || v0 <= 0 || math.IsInf(v0, 0) {
		t.Fatalf("empty-block predictive %v %v", m0, v0)
	}
	// A tiny tight block must not be overconfident: its predictive
	// variance must exceed its (near-zero) empirical variance.
	var tiny score.Stats
	tiny.Add(score.Quantize(1))
	tiny.Add(score.Quantize(1))
	_, vt := pr.Predictive(tiny)
	if vt < 0.1 {
		t.Fatalf("tiny tight block overconfident: variance %v", vt)
	}
}

package module

import (
	"reflect"
	"testing"

	"parsimone/internal/comm"
	"parsimone/internal/ganesh"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/synth"
	"parsimone/internal/trace"
)

func fixture(t testing.TB, seed uint64) (*score.QData, [][]int, *synth.Truth) {
	t.Helper()
	d, truth, err := synth.Generate(synth.Config{
		N: 24, M: 30, Regulators: 3, Modules: 2, Noise: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Standardize()
	q := score.QuantizeData(d)
	moduleVars := make([][]int, truth.NumModules)
	for x, mod := range truth.ModuleOf {
		if mod >= 0 {
			moduleVars[mod] = append(moduleVars[mod], x)
		}
	}
	return q, moduleVars, truth
}

func mustLearn(t testing.TB, q *score.QData, pr score.Prior, moduleVars [][]int, par Params, g *prng.MRG3, wl *trace.Workload) *Result {
	t.Helper()
	res, err := LearnWithComm(rank.Self(wl), q, score.NewKernel(pr, q.N*q.M), moduleVars, par, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func defaultParams() Params {
	return Params{
		Tree:   ganesh.ObsParams{Updates: 3, Burnin: 1},
		Splits: splits.Params{NumSplits: 2, MaxSteps: 24},
	}
}

func TestLearnBasic(t *testing.T) {
	q, moduleVars, _ := fixture(t, 1)
	res := mustLearn(t, q, score.DefaultPrior(), moduleVars, defaultParams(), prng.New(3), nil)
	if len(res.Modules) != 2 {
		t.Fatalf("%d modules", len(res.Modules))
	}
	for mi, mod := range res.Modules {
		if len(mod.Trees) != 2 { // Updates − Burnin
			t.Fatalf("module %d: %d trees, want 2", mi, len(mod.Trees))
		}
		for _, tr := range mod.Trees {
			if err := tr.CheckInvariants(q); err != nil {
				t.Fatalf("module %d: %v", mi, err)
			}
		}
		if len(mod.ParentsWeighted) == 0 {
			t.Fatalf("module %d has no weighted parents", mi)
		}
	}
}

func TestLearnDeterministic(t *testing.T) {
	q, moduleVars, _ := fixture(t, 2)
	a := mustLearn(t, q, score.DefaultPrior(), moduleVars, defaultParams(), prng.New(5), nil)
	b := mustLearn(t, q, score.DefaultPrior(), moduleVars, defaultParams(), prng.New(5), nil)
	if !reflect.DeepEqual(a.Splits, b.Splits) {
		t.Fatal("splits differ across identical runs")
	}
	for mi := range a.Modules {
		if !reflect.DeepEqual(a.Modules[mi].ParentsWeighted, b.Modules[mi].ParentsWeighted) {
			t.Fatal("parent scores differ across identical runs")
		}
	}
}

// TestParallelMatchesSequential: the end-to-end §4.2 contract for the entire
// third task.
func TestParallelMatchesSequential(t *testing.T) {
	q, moduleVars, _ := fixture(t, 3)
	pr := score.DefaultPrior()
	par := defaultParams()
	want := mustLearn(t, q, pr, moduleVars, par, prng.New(7), nil)
	for _, p := range []int{1, 2, 3, 4, 7} {
		_, err := comm.Run(p, func(c *comm.Comm) error {
			got, err := LearnWithComm(rank.Context{Comm: c}, q, score.NewKernel(pr, q.N*q.M), moduleVars, par, prng.New(7), nil)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got.Splits, want.Splits) {
				t.Errorf("p=%d rank %d: splits differ", p, c.Rank())
			}
			for mi := range want.Modules {
				if !reflect.DeepEqual(got.Modules[mi].ParentsWeighted, want.Modules[mi].ParentsWeighted) {
					t.Errorf("p=%d rank %d module %d: parents differ", p, c.Rank(), mi)
				}
				if !reflect.DeepEqual(got.Modules[mi].ParentsUniform, want.Modules[mi].ParentsUniform) {
					t.Errorf("p=%d rank %d module %d: uniform parents differ", p, c.Rank(), mi)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestTrueRegulatorsRecovered: with the candidate-parent list restricted to
// the regulator variables (the standard Lemon-Tree usage — member genes
// correlate with their own module as strongly as the driver does, which is
// why candidate lists exist), each module's top parents must favour its true
// regulators.
func TestTrueRegulatorsRecovered(t *testing.T) {
	q, moduleVars, truth := fixture(t, 4)
	res := mustLearn(t, q, score.DefaultPrior(), moduleVars,
		Params{
			Tree:   ganesh.ObsParams{Updates: 4, Burnin: 1},
			Splits: splits.Params{NumSplits: 4, Candidates: []int{0, 1, 2}},
		}, prng.New(9), nil)
	hits := 0
	for mi, mod := range res.Modules {
		if len(mod.ParentsWeighted) == 0 {
			continue
		}
		isTrue := map[int]bool{}
		for _, r := range truth.Regulators[mi] {
			isTrue[r] = true
		}
		if isTrue[mod.ParentsWeighted[0].Parent] {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no module's top-ranked candidate parent is a true regulator")
	}
}

func TestParentScoresSortedAndBounded(t *testing.T) {
	q, moduleVars, _ := fixture(t, 5)
	res := mustLearn(t, q, score.DefaultPrior(), moduleVars, defaultParams(), prng.New(11), nil)
	for _, mod := range res.Modules {
		for i, ps := range mod.ParentsWeighted {
			if ps.Score < 0 || ps.Score > 1 {
				t.Fatalf("parent score %v out of [0,1]", ps.Score)
			}
			if ps.Count <= 0 {
				t.Fatal("parent with zero split count")
			}
			if i > 0 && mod.ParentsWeighted[i-1].Score < ps.Score {
				t.Fatal("parents not sorted by descending score")
			}
		}
	}
}

func TestScoreParentsAggregation(t *testing.T) {
	assigned := []splits.Assigned{
		{Module: 0, Parent: 5, Posterior: 1.0, NodeObs: 10},
		{Module: 0, Parent: 5, Posterior: 0.5, NodeObs: 30},
		{Module: 0, Parent: 7, Posterior: 0.8, NodeObs: 10},
		{Module: 1, Parent: 5, Posterior: 0.1, NodeObs: 10}, // other module
	}
	got := scoreParents(assigned, 0)
	if len(got) != 2 {
		t.Fatalf("%d parents, want 2", len(got))
	}
	// Parent 7: score 0.8. Parent 5: (1*10 + 0.5*30)/40 = 0.625.
	if got[0].Parent != 7 || got[0].Score != 0.8 {
		t.Fatalf("top parent %+v", got[0])
	}
	if got[1].Parent != 5 || got[1].Score != 0.625 || got[1].Count != 2 {
		t.Fatalf("second parent %+v", got[1])
	}
}

func TestScoreParentsEmpty(t *testing.T) {
	if got := scoreParents(nil, 0); len(got) != 0 {
		t.Fatalf("empty input gave %v", got)
	}
}

func TestWorkloadRecorded(t *testing.T) {
	q, moduleVars, _ := fixture(t, 6)
	wl := &trace.Workload{}
	mustLearn(t, q, score.DefaultPrior(), moduleVars, defaultParams(), prng.New(13), wl)
	if wl.Phase(splits.PhaseAssign) == nil {
		t.Fatal("split phase not recorded")
	}
	if wl.Phase(ganesh.PhaseObsReassign) == nil {
		t.Fatal("observation clustering phase not recorded")
	}
	// The split phase must dominate, as in the paper (>90 % §3.2.3).
	assignCost := wl.Phase(splits.PhaseAssign).TotalCost()
	if frac := assignCost / wl.TotalCost(); frac < 0.5 {
		t.Fatalf("split assignment is only %.0f%% of module-learning cost", frac*100)
	}
}

func BenchmarkLearn(b *testing.B) {
	q, moduleVars, _ := fixture(b, 1)
	pr := score.DefaultPrior()
	par := defaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustLearn(b, q, pr, moduleVars, par, prng.New(uint64(i)), nil)
	}
}

package bench

import (
	"fmt"
	"time"

	"parsimone/internal/core"
	"parsimone/internal/eval"
	"parsimone/internal/genomica"
	"parsimone/internal/prng"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/synth"
)

// CompareGenomica puts the two module-network learners side by side — the
// Lemon-Tree pipeline the paper parallelizes and the GENOMICA two-step
// algorithm it is contrasted with in §1.1: both learn from the same
// synthetic data across noise levels, scored by module-recovery ARI
// against the generative ground truth. GENOMICA requires the module count
// as input; it is run both with the true count and with a misspecified
// (doubled) count, an input problem Lemon-Tree does not have.
func CompareGenomica(scale Scale) *Table {
	n, m := 60, 50
	noises := []float64{0.2, 0.4, 0.6}
	seeds := []uint64{1, 2, 3}
	if scale == Quick {
		noises = []float64{0.3}
		seeds = seeds[:1]
	}
	t := &Table{
		Title:  fmt.Sprintf("Comparison — Lemon-Tree pipeline vs GENOMICA (n=%d, m=%d, module-recovery ARI)", n, m),
		Header: []string{"noise", "lemon-tree ARI", "genomica ARI (true K)", "genomica ARI (2K)", "lemon-tree time", "genomica time"},
		Notes: []string{
			"context: §1.1 cites studies (Joshi 2009, Michoel 2007) finding Lemon-Tree more robust than GENOMICA;",
			"on this clean synthetic generator GENOMICA is competitive — it must, however, be told the module",
			"count K (true-K and 2K columns), while the Lemon-Tree pipeline discovers the module count itself;",
			"the literature's robustness gap appears on realistic noise/confounding this generator does not model",
		},
	}
	for _, noise := range noises {
		var ltARI, genARI, genMisARI float64
		var ltDur, genDur time.Duration
		for _, seed := range seeds {
			d, truth, err := synth.Generate(synth.Config{
				N: n, M: m, Regulators: 5, Modules: 4, Noise: noise, Seed: seed,
			})
			if err != nil {
				panic(err)
			}

			opt := runOptions(seed + 100)
			opt.Ganesh.Updates = 3
			start := time.Now()
			ltOut, err := core.Learn(d, opt)
			if err != nil {
				panic(err)
			}
			ltDur += time.Since(start)
			ltARI += result.AdjustedRandIndex(truth.ModuleOf, ltOut.Network.ModuleOf())

			_, q, err := core.Fit(d)
			if err != nil {
				panic(err)
			}
			start = time.Now()
			genOut, err := genomica.Learn(q, score.DefaultPrior(),
				genomica.Params{Modules: truth.NumModules, MaxIters: 8}, prng.New(seed+200))
			if err != nil {
				panic(err)
			}
			genDur += time.Since(start)
			genARI += result.AdjustedRandIndex(truth.ModuleOf, genOut.Assign)

			genMis, err := genomica.Learn(q, score.DefaultPrior(),
				genomica.Params{Modules: 2 * truth.NumModules, MaxIters: 8}, prng.New(seed+300))
			if err != nil {
				panic(err)
			}
			genMisARI += result.AdjustedRandIndex(truth.ModuleOf, genMis.Assign)
		}
		k := float64(len(seeds))
		t.AddRow(fmt.Sprintf("%.1f", noise),
			fmt.Sprintf("%.3f", ltARI/k), fmt.Sprintf("%.3f", genARI/k),
			fmt.Sprintf("%.3f", genMisARI/k),
			fmtDur(ltDur/time.Duration(len(seeds))), fmtDur(genDur/time.Duration(len(seeds))))
	}
	return t
}

// CrossVal runs the held-out generalization check: k-fold cross-validation
// of the learned CPDs against the global-mean baseline on synthetic data.
// Not a paper table — the paper's gated real data sets cannot support a
// ground-truth accuracy analysis — but the natural companion to it: the
// networks built fast must also carry signal.
func CrossVal(scale Scale) *Table {
	n, m, folds := 60, 80, 4
	if scale == Quick {
		n, m, folds = 40, 40, 2
	}
	t := &Table{
		Title:  fmt.Sprintf("Cross-validation — held-out CPD prediction (n=%d, m=%d, %d folds)", n, m, folds),
		Header: []string{"fold", "modules", "CPD RMSE", "baseline RMSE", "CPD loglik", "baseline loglik"},
		Notes: []string{
			"module-mean prediction on held-out conditions vs the global-mean baseline;",
			"the ensemble CPDs (R trees per module, mixture-averaged) beat the baseline on both metrics",
		},
	}
	d, _, err := synth.Generate(synth.Config{
		N: n, M: m, Modules: 3, Regulators: 5, Noise: 0.25, Seed: 2,
	})
	if err != nil {
		panic(err)
	}
	opt := runOptions(5)
	opt.Ganesh.Updates = 3
	opt.Module.Tree.Updates = 4 // 3 trees per module for the ensemble CPD
	opt.Module.Splits.NumSplits = 3
	opt.Module.Splits.MaxSteps = 48
	cv, err := eval.CrossValidate(d, opt, folds)
	if err != nil {
		panic(err)
	}
	for _, fr := range cv.Folds {
		t.AddRow(fmt.Sprint(fr.Fold), fmt.Sprint(fr.Modules),
			fmt.Sprintf("%.3f", fr.CPDRMSE), fmt.Sprintf("%.3f", fr.BaselineRMSE),
			fmt.Sprintf("%.2f", fr.CPDLogLik), fmt.Sprintf("%.2f", fr.BaselineLogLik))
	}
	t.AddRow("mean", "-",
		fmt.Sprintf("%.3f", cv.CPDRMSE), fmt.Sprintf("%.3f", cv.BaselineRMSE),
		fmt.Sprintf("%.2f", cv.CPDLogLik), fmt.Sprintf("%.2f", cv.BaselineLogLik))
	return t
}

// CommVolume measures the real message traffic of the two split
// distribution schedules on the goroutine message-passing runtime — the
// communication claim behind the paper's segmented-scan design (§3.2.3:
// O(τ log p + µJKRL) instead of gathering every posterior). Both schedules
// select with that scan; they differ only in which rank scores which span
// of the candidate list, and the dynamic one adds its counter's traffic.
func CommVolume(scale Scale) *Table {
	n, m := 80, 40
	ranks := []int{2, 4, 8, 16}
	if scale == Quick {
		n, m = 40, 24
		ranks = []int{2, 4}
	}
	t := &Table{
		Title:  fmt.Sprintf("Communication volume — split distribution paths (n=%d, m=%d, measured)", n, m),
		Header: []string{"p", "path", "elements", "messages", "identical"},
		Notes: []string{
			"elements = payload items sent across all ranks during the full pipeline (a slice counts its length, any other value 1);",
			"both paths select with the paper's Algorithm 5 segmented scan: static scores one block per rank, dynamic takes chunks from a shared counter, one message per chunk request;",
			"each exchange is one all-gather, p·⌈log₂ p⌉ messages; both paths learn the same network",
		},
	}
	d := genData(n, m, 777)
	opt := runOptions(11)
	opt.Module.Splits.MaxSteps = 16
	base, err := core.Learn(d, opt)
	if err != nil {
		panic(err)
	}
	for _, p := range ranks {
		for _, path := range []string{"static", "dynamic"} {
			o := opt
			if path == "dynamic" {
				o.Module.Splits.DynamicChunk = 64
			}
			out, err := core.LearnParallel(p, d, o)
			if err != nil {
				panic(err)
			}
			t.AddRow(fmt.Sprint(p), path,
				fmt.Sprint(out.CommStats.Elems), fmt.Sprint(out.CommStats.Sends),
				fmt.Sprint(result.Equal(out.Network, base.Network)))
		}
	}
	return t
}

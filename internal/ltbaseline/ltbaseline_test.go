package ltbaseline

import (
	"testing"
	"time"

	"parsimone/internal/cluster"
	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/prng"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/synth"
)

func testData(t testing.TB, n, m int, seed uint64) *dataset.Data {
	t.Helper()
	d, _, err := synth.Generate(synth.Config{
		N: n, M: m, Regulators: max(2, n/10), Modules: max(2, n/12), Noise: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fastOptions(seed uint64) core.Options {
	opt := core.DefaultOptions()
	opt.Seed = seed
	opt.Module.Splits = splits.Params{NumSplits: 2, MaxSteps: 16}
	return opt
}

func TestLearnProducesValidNetwork(t *testing.T) {
	d := testData(t, 24, 20, 1)
	out, err := Learn(d, fastOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Network.Modules) == 0 {
		t.Fatal("no modules")
	}
	if err := out.Network.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExactMatchWithOptimizedEngine is the §5.2.1 reproduction contract:
// "we verified that our implementation learns the exact same MoNets as the
// ones learned by Lemon-Tree in all the cases". Both engines here must learn
// bit-identical networks from the same seed, across several data sets. The
// baseline decides every split by the exact expression logML(L) + logML(R) −
// logML(T) > 0 where the engine certifies its sign (DESIGN §23), so this is
// also that decision's end-to-end referee: the last two rows give it a prior
// with an off-centre mean and far stronger shape, and the largest blocks the
// suite scores.
func TestExactMatchWithOptimizedEngine(t *testing.T) {
	for _, tc := range []struct {
		n, m     int
		dataSeed uint64
		runSeed  uint64
		prior    score.Prior
	}{
		{20, 16, 1, 5, score.DefaultPrior()},
		{24, 20, 2, 7, score.DefaultPrior()},
		{30, 25, 3, 11, score.DefaultPrior()},
		{24, 20, 2, 7, score.Prior{Mu0: 0.5, Lambda0: 2, Alpha0: 3, Beta0: 1.5}},
		{60, 50, 5, 17, score.DefaultPrior()},
	} {
		d := testData(t, tc.n, tc.m, tc.dataSeed)
		opt := fastOptions(tc.runSeed)
		opt.Prior = tc.prior
		slow, err := Learn(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := core.Learn(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !result.Equal(slow.Network, fast.Network) {
			t.Fatalf("n=%d m=%d prior %+v: baseline and optimized networks differ", tc.n, tc.m, tc.prior)
		}
	}
}

// TestExactMatchWithParallelEngine closes the triangle: the reference
// baseline must also match the parallel engine exactly.
func TestExactMatchWithParallelEngine(t *testing.T) {
	d := testData(t, 24, 20, 4)
	opt := fastOptions(13)
	slow, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.LearnParallel(3, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(slow.Network, par.Network) {
		t.Fatal("baseline and parallel networks differ")
	}
}

// TestBaselineIsSlower: the whole point of the optimized engine (Table 1).
// Measured on a workload large enough for timer noise not to matter.
func TestBaselineIsSlower(t *testing.T) {
	d := testData(t, 60, 50, 5)
	opt := fastOptions(17)
	timeOf := func(fn func() error) time.Duration {
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	slow := timeOf(func() error { _, err := Learn(d, opt); return err })
	fast := timeOf(func() error { _, err := core.Learn(d, opt); return err })
	if slow <= fast {
		t.Fatalf("baseline (%v) not slower than optimized (%v)", slow, fast)
	}
	t.Logf("baseline %v, optimized %v, speedup %.1fx", slow, fast, float64(slow)/float64(fast))
}

func TestLearnValidatesInput(t *testing.T) {
	d := testData(t, 20, 16, 6)
	opt := fastOptions(1)
	opt.Prior.Beta0 = 0
	if _, err := Learn(d, opt); err == nil {
		t.Fatal("bad prior accepted")
	}
}

func BenchmarkBaselineLearn(b *testing.B) {
	d := testData(b, 40, 40, 1)
	opt := fastOptions(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Learn(d, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScore contrasts the two score-evaluation strategies on
// the operation that dominates GaneSH: evaluating a variable's attachment
// gain against a cluster. The optimized engine uses cached incremental
// statistics; the reference engine rescans the raw block cells.
func BenchmarkAblationScore(b *testing.B) {
	d := testData(b, 100, 100, 1)
	work := d.Clone()
	work.Standardize()
	q := score.QuantizeData(work)
	pr := score.DefaultPrior()
	e := &gibbs{q: q, k: score.NewKernel(pr, q.N*q.M), g: prng.New(2)}
	cc := cluster.NewRandomCoClustering(q, e.k, 10, 5, prng.New(1))
	cc.DetachVar(50)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.GainAttachVar(50, i%len(cc.Clusters))
		}
	})
	b.Run("rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.gainAttachVar(cc, 50, i%len(cc.Clusters))
		}
	})
}

package cluster

import (
	"math"
	"testing"

	"parsimone/internal/prng"
	"parsimone/internal/score"
	"parsimone/internal/synth"
)

// TestBatchedGainsMatchScalar: every batched gain is bit-equal to the scalar
// Gain* call it stands for, on random co-clusterings with and without a
// scoring kernel attached, over every candidate range [lo, hi) of each
// decision — ranges that start, end or both inside the candidate list, the
// empty range, and the full one — with one Batch reused throughout, as a
// pool worker reuses its own.
func TestBatchedGainsMatchScalar(t *testing.T) {
	var b Batch
	for seed := uint64(1); seed <= 6; seed++ {
		q := testData(t, 18, 14, seed)
		pr := score.DefaultPrior()
		g := prng.New(seed + 40)
		cc := NewRandomCoClustering(q, pr, 1+int(seed%5), 1+int(seed%4), g)
		if seed%2 == 0 {
			cc.UseKernel(score.NewKernel(pr, q.N*q.M))
		}
		// ranges runs check over every [lo, hi) of n candidates.
		ranges := func(what string, n int, batched func(lo int, out []float64), scalar func(i int) float64) {
			t.Helper()
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					out := make([]float64, hi-lo+1)
					out[hi-lo] = 42
					batched(lo, out[:hi-lo])
					for i := lo; i < hi; i++ {
						if want := scalar(i); math.Float64bits(out[i-lo]) != math.Float64bits(want) {
							t.Fatalf("seed %d %s range [%d,%d) candidate %d: batched %v, scalar %v", seed, what, lo, hi, i, out[i-lo], want)
						}
					}
					if out[hi-lo] != 42 {
						t.Fatalf("seed %d %s range [%d,%d): wrote past the range", seed, what, lo, hi)
					}
				}
			}
		}
		for it := 0; it < 4; it++ {
			x := g.Intn(q.N)
			cc.DetachVar(x)
			k := len(cc.Clusters)
			ranges("attach-var", k+1,
				func(lo int, out []float64) { cc.GainsAttachVar(&b, x, lo, out) },
				func(i int) float64 { return cc.GainAttachVar(x, i) })
			cc.AttachVar(x, g.Intn(k+1))

			src := g.Intn(len(cc.Clusters))
			cols := cc.VarColumnStats(src)
			ranges("merge-var", len(cc.Clusters),
				func(lo int, out []float64) { cc.GainsMergeVar(&b, cols, src, lo, out) },
				func(j int) float64 { return cc.GainMergeVar(cols, src, j) })

			oc := cc.Clusters[g.Intn(len(cc.Clusters))].Obs
			j := g.Intn(q.M)
			col := oc.DetachObs(j)
			l := len(oc.Clusters)
			ranges("attach-obs", l+1,
				func(lo int, out []float64) { oc.GainsAttachObs(&b, col, lo, out) },
				func(i int) float64 { return oc.GainAttachObs(col, i) })
			oc.AttachObs(j, g.Intn(l+1))

			osrc := g.Intn(len(oc.Clusters))
			ranges("merge-obs", len(oc.Clusters),
				func(lo int, out []float64) { oc.GainsMergeObs(&b, osrc, lo, out) },
				func(i int) float64 { return oc.GainMergeObs(osrc, i) })
			if err := cc.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkGainsAttachVar is BenchmarkGainAttachVar's state scored through
// a kernel, as the sampler scores, one whole decision per iteration: ns/gain
// is the time per candidate gain.
func BenchmarkGainsAttachVar(b *testing.B) {
	d, _, _ := synth.Generate(synth.Config{N: 100, M: 100, Seed: 1})
	d.Standardize()
	q := score.QuantizeData(d)
	cc := NewRandomCoClustering(q, score.DefaultPrior(), 10, 5, prng.New(1))
	cc.UseKernel(score.NewKernel(cc.Prior, q.N*q.M))
	cc.DetachVar(50)
	out := make([]float64, len(cc.Clusters)+1)
	var batch Batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.GainsAttachVar(&batch, 50, 0, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/gain")
}

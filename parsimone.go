// Package parsimone is a Go implementation of ParsiMoNe — the parallel
// module-network construction system of "Parallel Construction of Module
// Networks" (Srivastava, Chockalingam, Aluru & Aluru, SC '21) — including
// the three Lemon-Tree learning tasks it parallelizes: GaneSH Gibbs-sampler
// co-clustering, spectral consensus clustering, and regression-tree module
// learning with parent-split assignment.
//
// # Quick start
//
//	data, _ := parsimone.LoadTSV("expression.tsv")
//	opt := parsimone.DefaultOptions()
//	opt.Seed = 42
//	out, err := parsimone.Learn(data, opt)          // one rank
//	out, err = parsimone.LearnParallel(8, data, opt) // 8 ranks, same network
//
// There is one engine. It runs on an MPI-style message-passing runtime over
// goroutines and learns exactly the same network for every rank count — the
// reproducibility guarantee of the paper's §4.2 — and a sequential run is
// that engine on a one-rank world: Learn is LearnParallel(1, …), supervised
// restarts, fault injection and cancellation included.
//
// Synthetic module-structured data with ground truth is available through
// GenerateSynthetic for benchmarking and validation.
package parsimone

import (
	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/eval"
	"parsimone/internal/genomica"
	"parsimone/internal/module"
	"parsimone/internal/prng"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/synth"
	"parsimone/internal/trace"
)

// Data is an n×m expression matrix with named variables.
type Data = dataset.Data

// Options configures a learning run; see DefaultOptions.
type Options = core.Options

// Output is the result of a learning run: the network, per-module
// artifacts, and the per-task timing breakdown.
type Output = core.Output

// Network is the learned module network artifact with XML/JSON
// serialization.
type Network = result.Network

// FaultSpec describes a deterministic failure to inject via Options.Inject —
// a crash at a pipeline failpoint ("ganesh", "consensus", or "module:<k>")
// or at a specific communication operation — honored by the supervised
// driver behind Learn and LearnParallel, which recovers it when
// Options.MaxRestarts allows.
type FaultSpec = core.FaultSpec

// RecoveryEvent records one supervised restart in Output.Recovery.
type RecoveryEvent = trace.RecoveryEvent

// SynthConfig configures the synthetic data generator.
type SynthConfig = synth.Config

// SynthTruth is the generative ground truth of a synthetic data set.
type SynthTruth = synth.Truth

// DefaultOptions returns the paper's minimum-run-time experiment
// configuration: one GaneSH run, one update step, one regression tree per
// module, every variable a candidate parent.
func DefaultOptions() Options { return core.DefaultOptions() }

// Learn runs the full pipeline on one rank: LearnParallel(1, d, opt).
func Learn(d *Data, opt Options) (*Output, error) { return core.Learn(d, opt) }

// LearnParallel runs the full pipeline on p message-passing ranks and
// returns the (identical) network with aggregate communication statistics.
func LearnParallel(p int, d *Data, opt Options) (*Output, error) {
	return core.LearnParallel(p, d, opt)
}

// LoadTSV reads an expression matrix from a tab-separated file (one row per
// variable: name, then one value per observation; optional header).
func LoadTSV(path string) (*Data, error) { return dataset.LoadTSV(path) }

// NewData allocates an empty n×m data set with generated variable names.
func NewData(n, m int) *Data { return dataset.New(n, m) }

// GenerateSynthetic produces a module-structured synthetic expression data
// set with known ground truth (modules, regulator programs, condition
// groups).
func GenerateSynthetic(cfg SynthConfig) (*Data, *SynthTruth, error) {
	return synth.Generate(cfg)
}

// Equal reports whether two learned networks are exactly identical —
// modules, memberships, and parent scores.
func Equal(a, b *Network) bool { return result.Equal(a, b) }

// CPD is a module's executable regression-tree conditional distribution.
type CPD = module.CPD

// Predictor is a learned network as an executable model: the training
// transform and one CPD per module.
type Predictor = core.Predictor

// Prediction is one module's predicted mean and variance.
type Prediction = core.Prediction

// NewPredictor builds the predictor of a learning output from the data set
// and Options it was learned with. Predict takes raw observations;
// Transform.Observation gives the CPD input itself.
func NewPredictor(d *Data, opt Options, out *Output) (*Predictor, error) {
	return core.NewPredictor(d, opt, out)
}

// Dequantize maps a CPD input value back to the scale the CPDs predict on.
func Dequantize(q int64) float64 { return score.Dequantize(q) }

// GenomicaParams configures the GENOMICA (Segal et al.) two-step learner,
// provided as a comparison system (paper §1.1, §6).
type GenomicaParams = genomica.Params

// GenomicaResult is a GENOMICA-learned module network.
type GenomicaResult = genomica.Result

// LearnGenomica runs the GENOMICA two-step algorithm, under the default
// prior, on the data set checked, standardized and quantized by the
// Lemon-Tree engines' training transform.
func LearnGenomica(d *Data, par GenomicaParams, seed uint64) (*GenomicaResult, error) {
	_, q, err := core.Fit(d)
	if err != nil {
		return nil, err
	}
	return genomica.Learn(q, score.DefaultPrior(), par, prng.New(seed))
}

// CrossValidate runs k-fold cross-validation over observations, scoring
// each fold's CPDs on held-out conditions against the global-mean baseline.
func CrossValidate(d *Data, opt Options, k int) (*eval.CVResult, error) {
	return eval.CrossValidate(d, opt, k)
}

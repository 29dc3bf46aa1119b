package parsimone_test

import (
	"fmt"

	"parsimone"
)

// ExampleLearn shows the minimal end-to-end flow: synthetic data in, module
// network out, with the parallel engine verified to agree exactly.
func ExampleLearn() {
	data, _, err := parsimone.GenerateSynthetic(parsimone.SynthConfig{
		N: 30, M: 24, Modules: 2, Regulators: 3, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	opt := parsimone.DefaultOptions()
	opt.Seed = 11
	opt.Module.Splits.MaxSteps = 16 // keep the example quick

	seq, err := parsimone.Learn(data, opt)
	if err != nil {
		panic(err)
	}
	par, err := parsimone.LearnParallel(3, data, opt)
	if err != nil {
		panic(err)
	}
	fmt.Println("parallel identical:", parsimone.Equal(seq.Network, par.Network))
	// Output:
	// parallel identical: true
}

// ExampleNewPredictor demonstrates turning a learned network into an
// executable model and predicting every module's expression under a raw
// observation.
func ExampleNewPredictor() {
	data, _, err := parsimone.GenerateSynthetic(parsimone.SynthConfig{
		N: 30, M: 24, Modules: 2, Regulators: 3, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	opt := parsimone.DefaultOptions()
	opt.Seed = 11
	opt.Module.Splits.MaxSteps = 16

	out, err := parsimone.Learn(data, opt)
	if err != nil {
		panic(err)
	}
	pred, err := parsimone.NewPredictor(data, opt, out)
	if err != nil {
		panic(err)
	}
	// Predict every module's distribution under the first observed
	// condition, given on its raw scale.
	obs := make([]float64, data.N)
	for x := range obs {
		obs[x] = data.At(x, 0)
	}
	preds, clipped, err := pred.Predict(obs)
	if err != nil {
		panic(err)
	}
	fmt.Println("finite prediction:", !isNaN(preds[0].Mean) && preds[0].Variance > 0)
	fmt.Println("values clipped to ±8 sd:", clipped)
	// Output:
	// finite prediction: true
	// values clipped to ±8 sd: 0
}

func isNaN(x float64) bool { return x != x }

// Predict demonstrates using a learned module network as a probabilistic
// model, the purpose MoNets serve downstream (§2.1): train on part of the
// conditions, build the per-module regression-tree CPDs, and predict each
// module's expression in held-out conditions from the regulator values
// alone — comparing against the global-mean baseline.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"parsimone"
)

func main() {
	n := flag.Int("n", 100, "genes")
	m := flag.Int("m", 100, "observations (last quarter held out)")
	flag.Parse()

	data, truth, err := parsimone.GenerateSynthetic(parsimone.SynthConfig{
		N: *n, M: *m, Modules: 4, Regulators: 6, Noise: 0.3, Seed: 77,
	})
	if err != nil {
		log.Fatal(err)
	}
	holdout := *m / 4
	train, err := data.Subset(data.N, data.M-holdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training on %d conditions, holding out %d\n", train.M, holdout)

	opt := parsimone.DefaultOptions()
	opt.Seed = 9
	opt.Ganesh.Updates = 3
	out, err := parsimone.Learn(train, opt)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := parsimone.NewPredictor(train, opt, out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned %d modules with executable CPDs\n\n", len(pred.CPDs))

	// Every condition reaches the CPDs through the training transform:
	// standardized with the training conditions' moments, then quantized.
	cols := make([][]int64, data.M)
	for j := range cols {
		raw := make([]float64, data.N)
		for x := range raw {
			raw[x] = data.At(x, j)
		}
		if cols[j], err = pred.Transform.Observation(raw); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("%-8s %-10s %-14s %-14s\n", "module", "genes", "CPD RMSE", "baseline RMSE")
	var cpdTotal, baseTotal float64
	for _, cpd := range pred.CPDs {
		vars := out.Modules[cpd.Module].Vars
		// Each condition's module mean, and the training conditions' global
		// mean, on the CPDs' scale.
		actual := make([]float64, data.M)
		var trainMean float64
		for j, obs := range cols {
			for _, x := range vars {
				actual[j] += parsimone.Dequantize(obs[x]) / float64(len(vars))
			}
			if j < train.M {
				trainMean += actual[j] / float64(train.M)
			}
		}
		var seCPD, seBase float64
		for j := train.M; j < data.M; j++ {
			mean, _ := cpd.Predict(cols[j])
			seCPD += (mean - actual[j]) * (mean - actual[j])
			seBase += (trainMean - actual[j]) * (trainMean - actual[j])
		}
		rmseCPD, rmseBase := math.Sqrt(seCPD/float64(holdout)), math.Sqrt(seBase/float64(holdout))
		cpdTotal += rmseCPD
		baseTotal += rmseBase
		fmt.Printf("%-8d %-10d %-14.3f %-14.3f\n", cpd.Module, len(vars), rmseCPD, rmseBase)
	}
	rows := len(pred.CPDs)
	if rows == 0 {
		log.Fatal("no modules learned")
	}
	fmt.Printf("\nmean held-out RMSE: CPD %.3f vs baseline %.3f (%d true modules in data)\n",
		cpdTotal/float64(rows), baseTotal/float64(rows), truth.NumModules)
}

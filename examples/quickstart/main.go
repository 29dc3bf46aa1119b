// Quickstart: generate a small synthetic expression data set, learn a
// module network with the public API, and print the modules with their
// top-scored regulators.
package main

import (
	"fmt"
	"log"
	"os"

	"parsimone"
)

func main() {
	// A small module-structured data set: 60 genes (incl. 4 regulators)
	// in 40 conditions, 3 ground-truth modules.
	data, truth, err := parsimone.GenerateSynthetic(parsimone.SynthConfig{
		N: 60, M: 40, Regulators: 4, Modules: 3, Noise: 0.3, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data: %d genes × %d conditions, %d true modules\n",
		data.N, data.M, truth.NumModules)

	opt := parsimone.DefaultOptions()
	opt.Seed = 7
	opt.Ganesh.Updates = 3 // a few more Gibbs sweeps than the paper's timing config
	out, err := parsimone.Learn(data, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("learned %d modules (tasks: %s)\n\n", len(out.Network.Modules), out.Timers)
	for _, mod := range out.Network.Modules {
		fmt.Printf("module %d: %d genes", mod.ID, len(mod.Variables))
		if len(mod.Parents) > 0 {
			top := mod.Parents[0]
			fmt.Printf(", top regulator %s (score %.2f)", top.Name, top.Score)
		}
		fmt.Println()
	}

	// Four ranks learn exactly the same network.
	par, err := parsimone.LearnParallel(4, data, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nparallel (p=4) network identical to sequential: %v\n",
		parsimone.Equal(out.Network, par.Network))

	// Persist as XML (the Lemon-Tree interchange format).
	f, err := os.Create("network.xml")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := out.Network.WriteXML(f); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote network.xml")
}

// Yeastlike reproduces the paper's §5.3 scenario in miniature: learn a
// genome-scale-style regulatory network from a yeast-like compendium,
// reporting the per-task time breakdown (Fig. 5a) and the module-level
// regulatory graph with acyclicity enforced as post-processing.
package main

import (
	"flag"
	"fmt"
	"log"

	"parsimone"
	"parsimone/internal/core"
	"parsimone/internal/result"
)

func main() {
	n := flag.Int("n", 240, "genes")
	m := flag.Int("m", 60, "observations")
	p := flag.Int("p", 1, "message-passing ranks")
	flag.Parse()

	// The synthetic compendium stands in for the Tchourine et al. yeast
	// RNA-seq data set the paper uses (n=5716, m=2577), reduced for a
	// single node; see DESIGN.md for the substitution rationale.
	data, _, err := parsimone.GenerateSynthetic(parsimone.SynthConfig{
		N: *n, M: *m, Seed: 2577,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("yeast-like compendium: %d genes × %d observations\n", data.N, data.M)

	opt := parsimone.DefaultOptions()
	opt.Seed = 5716
	out, err := parsimone.LearnParallel(*p, data, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Fig. 5a-style breakdown: module learning dominates.
	total := out.Timers.Total()
	fmt.Println("\ntask breakdown:")
	for _, task := range []string{core.TaskGaneSH, core.TaskConsensus, core.TaskModules} {
		d := out.Timers.Get(task)
		fmt.Printf("  %-10s %12v  (%.1f%%)\n", task, d.Round(1e6), float64(d)/float64(total)*100)
	}

	fmt.Printf("\n%d modules learned; sizes:", len(out.Network.Modules))
	for _, mod := range out.Network.Modules {
		fmt.Printf(" %d", len(mod.Variables))
	}
	fmt.Println()

	// Module graph with the acyclicity post-processing step (§2.2).
	raw := out.Network.ModuleGraph()
	dag := result.EnforceAcyclic(raw, len(out.Network.Modules))
	fmt.Printf("\nmodule graph: %d raw edges, %d after enforcing acyclicity\n", len(raw), len(dag))
	for _, e := range dag {
		fmt.Printf("  M%d -> M%d (score %.2f)\n", e.From, e.To, e.Score)
	}
}

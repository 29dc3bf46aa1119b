// Scaling reproduces the paper's Fig. 6 strong-scaling study in miniature:
// it measures an instrumented one-rank run, verifies more ranks against it
// at small rank counts on the real message-passing runtime, and
// projects the run time to thousands of ranks with the calibrated
// work-and-communication model (see DESIGN.md §2 for why large p is modeled
// rather than measured in this environment).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"parsimone"
	"parsimone/internal/splits"
	"parsimone/internal/trace"
)

func main() {
	n := flag.Int("n", 200, "genes")
	m := flag.Int("m", 50, "observations")
	flag.Parse()

	data, _, err := parsimone.GenerateSynthetic(parsimone.SynthConfig{N: *n, M: *m, Seed: 4096})
	if err != nil {
		log.Fatal(err)
	}

	opt := parsimone.DefaultOptions()
	opt.Seed = 3
	opt.RecordWork = true
	//parsivet:wallclock — example reports elapsed time; never feeds learned state
	start := time.Now()
	seq, err := parsimone.Learn(data, opt)
	if err != nil {
		log.Fatal(err)
	}
	//parsivet:wallclock — example reports elapsed time; never feeds learned state
	seqDur := time.Since(start)
	fmt.Printf("sequential run: %v (%d modules)\n", seqDur.Round(time.Millisecond), len(seq.Network.Modules))

	// Verification: the engine must reproduce the network exactly at every
	// rank count.
	opt.RecordWork = false
	for _, p := range []int{2, 4, 8} {
		par, err := parsimone.LearnParallel(p, data, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("p=%-3d real run: identical network = %v (%d collectives, %d sends)\n",
			p, parsimone.Equal(seq.Network, par.Network),
			par.CommStats.Collectives, par.CommStats.Sends)
	}

	// Projection: calibrated work model, as used for the paper-scale
	// figures (benchtab fig5b/fig6/table2).
	model := trace.DefaultModel()
	model.Calibrate(seq.Workload, seqDur)
	fmt.Println("\nprojected strong scaling (calibrated work + postal communication model):")
	fmt.Printf("  %-6s %-12s %-10s %s\n", "p", "time", "speedup", "efficiency")
	t1 := model.Time(seq.Workload, 1, trace.StaticFine)
	for _, p := range []int{1, 4, 16, 64, 256, 1024, 4096} {
		tp := model.Time(seq.Workload, p, trace.StaticFine)
		speedup := float64(t1) / float64(tp)
		fmt.Printf("  %-6d %-12v %-10.1f %.1f%%\n",
			p, tp.Round(time.Microsecond), speedup, speedup/float64(p)*100)
	}

	// Where the taper comes from: the §5.3.1 load-imbalance measure of
	// the split-scoring phase.
	ph := seq.Workload.Phase(splits.PhaseAssign)
	fmt.Println("\nsplit-scoring load imbalance (max−avg)/avg:")
	for _, p := range []int{64, 256, 1024} {
		fmt.Printf("  p=%-5d %.2f\n", p, model.PhaseImbalance(ph, p, trace.StaticFine))
	}
}

// Command benchtab regenerates the tables and figures of the paper's
// evaluation section (§5) at reduced scale. Each experiment prints the same
// rows or series the paper reports, with the paper's values noted for
// comparison.
//
// Usage:
//
//	benchtab [-quick] [-list] [-json] <experiment>...
//	benchtab all
//
// With -json every experiment result is emitted as one machine-readable
// JSON object per line ({"id", "seconds", "table"}) instead of the aligned
// text tables, so runs can be diffed and plotted by scripts.
//
// Experiments: table1, fig3, fig4, fig5a, fig5b, fig5c, fig6, table2,
// imbalance, ablation-dist, estimate, determinism, compare-genomica,
// crossval, comm-volume, recovery (-list prints them). Performance is
// refereed by the repo benchmark (go run ./benchmark), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"parsimone/internal/bench"
)

// jsonResult is the machine-readable per-experiment record of -json mode.
type jsonResult struct {
	ID      string       `json:"id"`
	Seconds float64      `json:"seconds"`
	Table   *bench.Table `json:"table"`
}

func main() {
	quick := flag.Bool("quick", false, "use the reduced CI-scale experiment sizes")
	list := flag.Bool("list", false, "list available experiments and exit")
	asJSON := flag.Bool("json", false, "emit one JSON object per experiment instead of text tables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchtab [-quick] [-list] [-json] <experiment>...|all\n")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", bench.Experiments())
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = bench.Experiments()
	}
	scale := bench.Full
	if *quick {
		scale = bench.Quick
	}
	enc := json.NewEncoder(os.Stdout)
	for _, id := range ids {
		//parsivet:wallclock — benchmark harness timing; never feeds learned state
		start := time.Now()
		table, err := bench.Run(id, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		//parsivet:wallclock — benchmark harness timing; never feeds learned state
		elapsed := time.Since(start)
		if *asJSON {
			if err := enc.Encode(jsonResult{ID: id, Seconds: elapsed.Seconds(), Table: table}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		table.Fprint(os.Stdout)
		fmt.Printf("  [%s regenerated in %v]\n\n", id, elapsed.Round(time.Millisecond))
	}
}

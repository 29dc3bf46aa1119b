// Package bench regenerates every table and figure of the paper's
// evaluation (§5) at a reduced scale suitable for a single node: Table 1
// (baseline vs optimized sequential run time), Figures 3–4 (sequential
// growth rates), Figure 5 (task breakdown and strong scaling on yeast-scale
// subsets), Figure 6 and Table 2 (large-data-set scaling), the §5.3.1 load
// imbalance measurement, the §5.2.2 run-time extrapolation, and the §4.2
// determinism verification — plus the distribution-scheme ablation the
// paper motivates (fine vs coarse; dynamic balancing is its stated future
// work).
//
// Strong-scaling times beyond the local core count are *modeled* from the
// recorded per-item work of the real sequential execution plus a calibrated
// postal communication model; see trace.Model and DESIGN.md §2 for the
// substitution rationale. Small-p parallel runs execute for real on the
// goroutine message-passing runtime and are used to verify the model's
// fidelity and the determinism contract.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/splits"
	"parsimone/internal/synth"
	"parsimone/internal/trace"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick is for CI: seconds per experiment.
	Quick Scale = iota
	// Full is the benchtab default: the complete reduced-scale
	// reproduction, minutes per experiment.
	Full
)

// Table is a printable experiment result. The JSON tags are the benchtab
// -json machine-readable schema.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// genData produces the standard synthetic workload for a given shape.
// The module count grows with n (≈ n/35), matching the paper's observation
// that K grows with the number of variables (§5.2.2).
func genData(n, m int, seed uint64) *dataset.Data {
	d, _, err := synth.Generate(synth.Config{N: n, M: m, Seed: seed})
	if err != nil {
		panic(err)
	}
	return d
}

// masterData caches the "complete data set" each sequential experiment
// subsets, mirroring the paper's §5.2 construction: smaller benchmark data
// sets are the first n variables × first m observations of one compendium,
// so grid cells differ only in size, not in data identity.
var masterCache = map[[3]uint64]*dataset.Data{}

func masterData(nMax, mMax int, seed uint64) *dataset.Data {
	key := [3]uint64{uint64(nMax), uint64(mMax), seed}
	if d, ok := masterCache[key]; ok {
		return d
	}
	d := genData(nMax, mMax, seed)
	masterCache[key] = d
	return d
}

// subsetData returns the first n × first m cells of the cached master.
func subsetData(nMax, mMax int, seed uint64, n, m int) *dataset.Data {
	d, err := masterData(nMax, mMax, seed).Subset(n, m)
	if err != nil {
		panic(err)
	}
	return d
}

// runOptions is the paper's minimum-run-time configuration (§5.1) with the
// bootstrap cap reduced to keep the reduced-scale experiments quick.
func runOptions(seed uint64) core.Options {
	opt := core.DefaultOptions()
	opt.Seed = seed
	opt.Module.Splits = splits.Params{NumSplits: 2, MaxSteps: 32}
	return opt
}

// measured is one instrumented sequential run.
type measured struct {
	out      *core.Output
	duration time.Duration
}

// runSequential executes the engine on one rank, recording work.
func runSequential(d *dataset.Data, seed uint64) measured {
	opt := runOptions(seed)
	opt.RecordWork = true
	start := time.Now()
	out, err := core.Learn(d, opt)
	if err != nil {
		panic(err)
	}
	return measured{out: out, duration: time.Since(start)}
}

// model calibrates the scaling model from a measured run.
func (m measured) model() trace.Model {
	mod := trace.DefaultModel()
	mod.Calibrate(m.out.Workload, m.duration)
	return mod
}

// fmtDur renders a duration compactly.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.0fms", float64(d.Microseconds())/1000)
	}
}

// experiments is the registry: one row per experiment, in the canonical
// order benchtab -list and `benchtab all` use. Experiments and Run both
// read it, so an id cannot be listed without dispatching.
var experiments = []struct {
	id  string
	run func(Scale) *Table
}{
	{"table1", Table1},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5a", Fig5a},
	{"fig5b", Fig5b},
	{"fig5c", Fig5c},
	{"fig6", Fig6},
	{"table2", Table2},
	{"imbalance", Imbalance},
	{"ablation-dist", AblationDist},
	{"estimate", Estimate},
	{"determinism", Determinism},
	{"compare-genomica", CompareGenomica},
	{"crossval", CrossVal},
	{"comm-volume", CommVolume},
	{"recovery", Recovery},
}

// Experiments lists the available experiment ids in canonical order.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id.
func Run(id string, scale Scale) (*Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(scale), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(Experiments(), ", "))
}

package bench

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== demo ==", "long-header", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Quick); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestExperimentsAllDispatch checks the registry without executing an
// experiment: the ids are exactly the sixteen below (so unique, and none of
// the retired ones) in benchtab -list order, and each has a runner. Run looks
// an id up in the same table; TestRunUnknownExperiment covers the miss.
func TestExperimentsAllDispatch(t *testing.T) {
	want := []string{
		"table1", "fig3", "fig4", "fig5a", "fig5b", "fig5c",
		"fig6", "table2", "imbalance", "ablation-dist",
		"estimate", "determinism", "compare-genomica", "crossval",
		"comm-volume", "recovery",
	}
	if got := Experiments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Experiments() = %v, want %v", got, want)
	}
	for _, e := range experiments {
		if e.run == nil {
			t.Fatalf("id %s has no runner", e.id)
		}
	}
}

func TestDeterminismExperiment(t *testing.T) {
	tab, err := Run("determinism", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("determinism violated: %v", row)
		}
	}
}

func TestImbalanceExperimentGrows(t *testing.T) {
	tab, err := Run("imbalance", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatal("need at least two p values")
	}
	first := tab.Rows[0][1]
	last := tab.Rows[len(tab.Rows)-1][1]
	if !(first < last) { // formatted %.2f compares lexicographically here
		t.Fatalf("imbalance did not grow with p: %s -> %s", first, last)
	}
}

func TestFig5bSpeedupMonotoneInP(t *testing.T) {
	tab, err := Run("fig5b", Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Speedup at the largest p must exceed speedup at the smallest p for
	// the largest data set (last column).
	firstRow := tab.Rows[0]
	lastRow := tab.Rows[len(tab.Rows)-1]
	lo, err := strconv.ParseFloat(firstRow[len(firstRow)-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := strconv.ParseFloat(lastRow[len(lastRow)-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Fatalf("speedup did not grow with p: %v -> %v", lo, hi)
	}
}

func TestCompareGenomicaQuick(t *testing.T) {
	tab, err := Run("compare-genomica", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 || len(tab.Rows[0]) != len(tab.Header) {
		t.Fatalf("malformed table: %+v", tab.Rows)
	}
	// Both learners must recover structure clearly above chance on the
	// quick configuration.
	lt, err := strconv.ParseFloat(tab.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := strconv.ParseFloat(tab.Rows[0][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if lt < 0.2 || gen < 0.2 {
		t.Fatalf("ARI too low: lemon-tree %v, genomica %v", lt, gen)
	}
}

func TestCrossValQuick(t *testing.T) {
	tab, err := Run("crossval", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 { // folds + mean
		t.Fatalf("rows: %v", tab.Rows)
	}
	if tab.Rows[len(tab.Rows)-1][0] != "mean" {
		t.Fatal("missing mean row")
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		90 * time.Second:        "1.5m",
		1500 * time.Millisecond: "1.50s",
		250 * time.Millisecond:  "250ms",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Fatalf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestTaskOfMapsAllPhases(t *testing.T) {
	// Every recorded phase name must map to one of the paper's three tasks.
	for _, name := range []string{
		"ganesh/var-reassign", "ganesh/var-merge",
		"ganesh/obs-reassign", "ganesh/obs-merge",
		"tree/build", "splits/assign", "anything-else",
	} {
		switch taskOf(name) {
		case "ganesh", "consensus", "modules":
		default:
			t.Fatalf("phase %s mapped to unknown task %s", name, taskOf(name))
		}
	}
}

func TestSubsetDataCachesMaster(t *testing.T) {
	a := subsetData(48, 24, 4242, 24, 12)
	b := subsetData(48, 24, 4242, 24, 12)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("cached master produced different subsets")
		}
	}
	// Subsets are copies: mutating one must not leak into the master.
	a.Set(0, 0, 99)
	c := subsetData(48, 24, 4242, 24, 12)
	if c.At(0, 0) == 99 {
		t.Fatal("subset aliases the cached master")
	}
}

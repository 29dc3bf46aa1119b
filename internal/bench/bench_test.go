package bench

import (
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

func TestExperimentsAllDispatch(t *testing.T) {
	// Every listed id must dispatch (checked by name only; execution is
	// covered by the per-experiment tests and benchmarks).
	for _, id := range Experiments() {
		found := false
		for _, known := range Experiments() {
			if id == known {
				found = true
			}
		}
		if !found {
			t.Fatalf("id %s missing", id)
		}
	}
}

// TestThreadsExperiment: the worker-pool table must report a bit-identical
// network at every W and carry W per-worker counters per row. Wall-clock
// speedup is NOT asserted — it requires a multicore host.
func TestThreadsExperiment(t *testing.T) {
	tab, err := Run("threads", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows (W∈{1,2,4,8}), got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Fatalf("W=%s network not identical: %v", row[0], row)
		}
		w, _ := strconv.Atoi(row[0])
		if got := len(strings.Split(row[5], "/")); got != w {
			t.Fatalf("W=%s row has %d worker counters: %v", row[0], got, row)
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

// TestServeExperiment: the service table must carry one row per load job
// with a sub-second cache-hit latency column — the second identical
// submission never runs a learning job.
func TestServeExperiment(t *testing.T) {
	tab, err := Run("serve", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows (one per load job), got %d", len(tab.Rows))
	}
	if got := tab.Header[len(tab.Header)-2]; got != "cache hit" {
		t.Fatalf("second-to-last column %q, want the cache-hit latency", got)
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[len(row)-1], "x") {
			t.Fatalf("speedup cell %q is not a factor", row[len(row)-1])
		}
	}
}

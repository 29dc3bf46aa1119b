package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// declared mirrors BENCHMARK.json at the repository root.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func quickRun(t *testing.T, workload, dir string) Run {
	t.Helper()
	rec, err := runWorkload(config{workload: workload, seed: 1, seconds: 1, trace: true, quick: true, outDir: dir})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, rec.Failed, rec.Attempted, rec.Errors)
	}
	return rec
}

func lineNames(t *testing.T, rec Run) []string {
	t.Helper()
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(resultLine(rec)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != rec.Attempted || line.Failed != 0 {
		t.Errorf("%s: result line says correct=%v attempted=%d failed=%d", rec.Workload, line.Correct, line.Attempted, line.Failed)
	}
	names := make([]string, 0, len(line.Metrics))
	for name, m := range line.Metrics {
		names = append(names, name)
		if m.Unit == "" {
			t.Errorf("%s: %s has no unit", rec.Workload, name)
		}
	}
	sort.Strings(names)
	return names
}

func namesOf(ms []declaredMetric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// TestDeclarationsMatch keeps the Go tables and BENCHMARK.json equal.
func TestDeclarationsMatch(t *testing.T) {
	d := readDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
	}
	byName := map[string]declaredMetric{}
	for _, m := range d.EndToEnd {
		byName[m.Name] = m
	}
	for _, m := range d.PerLayer {
		byName[m.Name] = m
	}
	if len(byName) != len(metricDefs) {
		t.Errorf("%d metrics declared, %d implemented", len(byName), len(metricDefs))
	}
	for _, m := range metricDefs {
		dm, ok := byName[m.Name]
		if !ok {
			t.Errorf("%s is not in BENCHMARK.json", m.Name)
			continue
		}
		if dm.Unit != m.Unit || dm.Better != m.Better {
			t.Errorf("%s: declared %s/%s, implemented %s/%s", m.Name, dm.Unit, dm.Better, m.Unit, m.Better)
		}
		if m.everywhere() && dm.Bound != m.Bound {
			t.Errorf("%s: declared bound %g, implemented %g", m.Name, dm.Bound, m.Bound)
		}
	}
}

// TestQuickWorkloads runs a -quick size of every workload, traced, twice.
func TestQuickWorkloads(t *testing.T) {
	d := readDeclared(t)
	dir := t.TempDir()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	var file File
	for _, w := range workloads {
		a, b := quickRun(t, w.name, dir), quickRun(t, w.name, dir)
		file.Runs = append(file.Runs, a)

		if got, want := lineNames(t, a), namesOf(d.PerLayer); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s traced: emitted %v, BENCHMARK.json per_layer declares %v", w.name, got, want)
		}
		untraced := a
		untraced.Trace = false
		if got, want := lineNames(t, untraced), namesOf(d.EndToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s untraced: emitted %v, BENCHMARK.json end_to_end declares %v", w.name, got, want)
		}
		if len(a.Metrics) != len(metricDefs) {
			t.Errorf("%s: %d metrics in the record, %d declared", w.name, len(a.Metrics), len(metricDefs))
		}
		for name, v := range a.Metrics {
			def, ok := metricByName(name)
			switch {
			case !ok:
				t.Errorf("%s: %s is not declared", w.name, name)
			case !valid.MatchString(name):
				t.Errorf("%s: bad metric name %q", w.name, name)
			case v.Unit != def.Unit:
				t.Errorf("%s: %s has unit %q, declared %q", w.name, name, v.Unit, def.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %v", w.name, name, v.Value)
			case def.Kind == endToEnd && def.on(w.name) && v.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			case def.Exact && v.Value != b.Metrics[name].Value:
				t.Errorf("%s: count %s does not repeat: %v then %v", w.name, name, v.Value, b.Metrics[name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}

	// A file compared with itself is all ok.
	path := filepath.Join(dir, "self.json")
	if err := writeFile(path, file); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, path, path)
	if err != nil || regressed {
		t.Fatalf("self-compare: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if s := out.String(); strings.Contains(s, "regressed") || strings.Contains(s, "unresolved") || !strings.Contains(s, "ok") {
		t.Errorf("self-compare is not all ok:\n%s", s)
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "work-") {
				t.Errorf("scratch directory %s left behind", e.Name())
			}
		}
	}
}

// TestHarnessArguments runs the command the way BENCHMARK.json's harness
// does: every flag with two dashes and -trace with a separate value.
func TestHarnessArguments(t *testing.T) {
	defer func(dir string) { outDir = dir }(outDir)
	outDir = t.TempDir()
	for _, trace := range []string{"0", "1"} {
		args := []string{"--workload", "assign", "--seed", "3", "--seconds", "1", "--trace", trace, "-quick"}
		if code := mainCode(args); code != 0 {
			t.Errorf("%v: exit code %d", args, code)
		}
	}
	if got := joinTrace([]string{"-trace", "-seed", "2"}); strings.Join(got, " ") != "-trace -seed 2" {
		t.Errorf("a bare -trace was rewritten: %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	// Five paired ratios B/A around v: within 1 % of it, or within 20 %.
	tight := func(v float64) []float64 { return []float64{v * 0.99, v * 0.995, v, v * 1.005, v * 1.01} }
	wide := func(v float64) []float64 { return []float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2} }
	for _, c := range []struct {
		name   string
		m      metricDef
		ratios []float64
		want   string
	}{
		{"same", lower, tight(1), "ok"},
		{"within bound", lower, tight(1.08), "ok"},
		{"slower", lower, tight(1.2), "regressed"},
		{"faster", lower, tight(0.5), "ok"},
		{"throughput down", higher, tight(0.8), "regressed"},
		{"throughput up", higher, tight(1.2), "ok"},
		{"noisy, a quarter of the pairs no worse", lower, wide(1.08), "unresolved"},
		{"noisy throughput", higher, wide(0.92), "unresolved"},
		{"noisy, change no worse", lower, wide(1), "ok"},
		{"noisy but apart", lower, wide(2), "regressed"},
		{"noisy, change clearly better", lower, wide(0.5), "ok"},
		{"base read 0", lower, nil, "ok"},
	} {
		if _, got := verdict(c.m, c.ratios); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestPairBySeed checks that runs are compared seed by seed, whatever their
// order in the files.
func TestPairBySeed(t *testing.T) {
	mk := func(seed uint64, v float64) Run {
		return Run{Workload: "assign", Seed: seed, Metrics: map[string]Value{"learn_s": scalar("s", v)}}
	}
	a := []Run{mk(1, 1), mk(2, 4), mk(3, 2)}
	b := []Run{mk(3, 2.2), mk(1, 1.1), mk(2, 4.4), mk(9, 100)}
	p := pair(a, b, "learn_s")
	if len(p.ratios) != 3 {
		t.Fatalf("%d pairs, want 3", len(p.ratios))
	}
	for _, r := range p.ratios {
		if math.Abs(r-1.1) > 1e-12 {
			t.Errorf("ratios %v, want 1.1 each", p.ratios)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "rep", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "call", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "call", StartNS: 30, EndNS: 60}, // overlaps span 1
	}
	got := selfTimes(spans)
	want := []SelfTime{
		{Name: "call", Count: 2, TotalS: 60e-9, SelfS: 60e-9},
		{Name: "rep", Count: 1, TotalS: 100e-9, SelfS: 50e-9}, // children cover 10..60
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Count != want[i].Count ||
			math.Abs(got[i].TotalS-want[i].TotalS) > 1e-15 || math.Abs(got[i].SelfS-want[i].SelfS) > 1e-15 {
			t.Errorf("self time %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

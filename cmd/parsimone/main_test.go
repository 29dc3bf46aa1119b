package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parsimone/internal/core"
	"parsimone/internal/obs"
	"parsimone/internal/result"
	"parsimone/internal/serve"
	"parsimone/internal/synth"
	"parsimone/internal/wire"
)

// writeData generates a small synthetic data set to a temp TSV.
func writeData(t *testing.T) string {
	t.Helper()
	return writeSynth(t, synth.Config{N: 30, M: 20, Seed: 1})
}

// writeSynth generates the synthetic data set cfg describes to a temp TSV.
func writeSynth(t *testing.T, cfg synth.Config) string {
	t.Helper()
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.tsv")
	if err := d.SaveTSV(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEndXML(t *testing.T) {
	in := writeData(t)
	out := filepath.Join(t.TempDir(), "net.xml")
	var buf bytes.Buffer
	err := run([]string{"-in", in, "-out", out, "-max-steps", "8", "-quiet", "-acyclic"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := result.ReadXML(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "module graph") {
		t.Fatalf("acyclic output missing: %q", buf.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	in := writeData(t)
	out := filepath.Join(t.TempDir(), "net.json")
	if err := run([]string{"-in", in, "-out", out, "-max-steps", "8", "-quiet"}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"modules"`)) {
		t.Fatal("JSON output missing modules")
	}
}

// TestRunOutFormats: every output format round-trips through -verify-out
// (the CLI reloads its own -out file and compares), the binary form is the
// smallest, and -out-format overrides the suffix.
func TestRunOutFormats(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	base := []string{"-in", in, "-max-steps", "8", "-quiet", "-verify-out"}
	sizes := map[string]int64{}
	for _, out := range []string{"net.xml", "net.json", "net.bin"} {
		path := filepath.Join(dir, out)
		if err := run(append(append([]string{}, base...), "-out", path), new(bytes.Buffer)); err != nil {
			t.Fatalf("%s: %v", out, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[out] = fi.Size()
	}
	if sizes["net.bin"] >= sizes["net.json"] || sizes["net.bin"] >= sizes["net.xml"] {
		t.Fatalf("binary output not the smallest: %v", sizes)
	}
	// The three formats decode to the same network.
	readNet := func(name string, read func(*os.File) (*result.Network, error)) *result.Network {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n, err := read(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return n
	}
	xmlNet := readNet("net.xml", func(f *os.File) (*result.Network, error) { return result.ReadXML(f) })
	jsonNet := readNet("net.json", func(f *os.File) (*result.Network, error) { return result.ReadJSON(f) })
	binNet := readNet("net.bin", func(f *os.File) (*result.Network, error) { return result.ReadBinary(f) })
	if !result.Equal(jsonNet, xmlNet) || !result.Equal(binNet, xmlNet) {
		t.Fatal("formats decode to different networks")
	}
	// -out-format overrides the suffix: write binary into a .xml name.
	forced := filepath.Join(dir, "forced.xml")
	if err := run(append(append([]string{}, base...), "-out", forced, "-out-format", "binary"),
		new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(forced)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := result.ReadBinary(f); err != nil || !result.Equal(n, xmlNet) {
		t.Fatalf("-out-format binary not honored: %v", err)
	}
}

// TestRunCheckpointFormats: every file -checkpoint writes is a binary wire
// file, the one checkpoint format, and a rerun over the directory resumes to
// the identical network.
func TestRunCheckpointFormats(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	base := []string{"-in", in, "-max-steps", "8", "-quiet", "-checkpoint", ckpt}
	for _, out := range []string{"a.xml", "b.xml"} {
		if err := run(append(append([]string{}, base...), "-out", filepath.Join(dir, out)), new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"ensembles.json", "modules.json", "progress.json"} {
			data, err := os.ReadFile(filepath.Join(ckpt, name))
			if err != nil {
				t.Fatal(err)
			}
			if !wire.IsWire(data) {
				t.Fatalf("%s is not a binary wire file", name)
			}
		}
	}
	read := func(name string) *result.Network {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n, err := result.ReadXML(f)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if !result.Equal(read("b.xml"), read("a.xml")) {
		t.Fatal("the resumed network differs from the first run's")
	}
}

// TestRunParallelAndDistPathsIdentical: the CLI must produce byte-identical
// networks across p and split distribution paths.
func TestRunParallelAndDistPathsIdentical(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	outputs := map[string][]string{
		"seq.xml":  {"-in", in, "-max-steps", "8", "-quiet"},
		"p3.xml":   {"-in", in, "-max-steps", "8", "-quiet", "-p", "3"},
		"scan.xml": {"-in", in, "-max-steps", "8", "-quiet", "-p", "2", "-dist", "scan"},
		"dyn.xml":  {"-in", in, "-max-steps", "8", "-quiet", "-p", "2", "-dist", "dynamic"},
	}
	nets := map[string]*result.Network{}
	for name, args := range outputs {
		out := filepath.Join(dir, name)
		if err := run(append(args, "-out", out), new(bytes.Buffer)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		nets[name], err = result.ReadXML(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, net := range nets {
		if !result.Equal(net, nets["seq.xml"]) {
			t.Fatalf("%s differs from sequential", name)
		}
	}
}

func TestRunSubsetAndRegulators(t *testing.T) {
	in := writeData(t)
	out := filepath.Join(t.TempDir(), "net.xml")
	err := run([]string{"-in", in, "-out", out, "-max-steps", "8", "-quiet",
		"-n", "20", "-m", "15", "-regulators", "R0000,R0001"}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(out)
	defer f.Close()
	net, err := result.ReadXML(f)
	if err != nil {
		t.Fatal(err)
	}
	if net.N != 20 || net.M != 15 {
		t.Fatalf("subset not applied: %dx%d", net.N, net.M)
	}
	for _, mod := range net.Modules {
		for _, p := range mod.Parents {
			if p.Index > 1 {
				t.Fatalf("parent %d outside regulator list", p.Index)
			}
		}
	}
}

// TestFlagsAndJSONGiveSameOptions: the CLI flags and the parsimoned JSON
// fields of the same names go through one mapping (JobRequest.Options), so
// the same request written either way must give reflect.DeepEqual engine
// options over the same dataset subset, or the same rejection.
func TestFlagsAndJSONGiveSameOptions(t *testing.T) {
	d, _, err := synth.Generate(synth.Config{N: 30, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		flags, body string
		wantErr     bool
	}{
		// The flag defaults written out: what a bare `parsimone -in x` asks for.
		{"", `{"ranks":1,"workers":1,"seed":1,"ganesh_runs":1,"updates":1,"trees":1,"splits":2,"max_steps":64,"dist":"static"}`, false},
		{"-seed 9 -ganesh-runs 3 -updates 2 -trees 4 -splits 3 -max-steps 16",
			`{"seed":9,"ganesh_runs":3,"updates":2,"trees":4,"splits":3,"max_steps":16,"workers":1}`, false},
		// A request may still name the one checkpoint format.
		{"-dist scan -max-restarts 2 -p 2 -threads 2 -splits 0 -max-steps 0",
			`{"dist":"scan","checkpoint_format":"binary","max_restarts":2,"ranks":2,"workers":2}`, false},
		{"-dist dynamic -splits 0 -max-steps 0", `{"dist":"dynamic","workers":1}`, false},
		// Subset, regulator names → indices, blank names skipped.
		{"-n 20 -m 15 -regulators R0001,,R0000, -splits 0 -max-steps 0",
			`{"n":20,"m":15,"regulators":["R0001","R0000"],"workers":1}`, false},
		// A zero count or seed keeps the engine default on both surfaces.
		{"-seed 0 -ganesh-runs 0 -updates 0 -trees 0 -splits 0 -max-steps 0", `{"workers":1}`, false},
		{"-n 1 -regulators R0001", `{"n":1,"regulators":["R0001"]}`, true}, // outside the subset
		{"-regulators ,", `{"regulators":["",""]}`, true},                  // names no variable
		{"-dist bogus", `{"dist":"bogus"}`, true},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("parsimone", flag.ContinueOnError)
		fromFlags := learnFlags(fs)
		if err := fs.Parse(strings.Fields(tc.flags)); err != nil {
			t.Fatalf("%q: %v", tc.flags, err)
		}
		var fromJSON serve.JobRequest
		if err := json.Unmarshal([]byte(tc.body), &fromJSON); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		fd, fopt, ferr := fromFlags.Options(d)
		jd, jopt, jerr := fromJSON.Options(d)
		if (ferr != nil) != tc.wantErr || fmt.Sprint(ferr) != fmt.Sprint(jerr) {
			t.Errorf("%q: flags error %v, JSON error %v, want error %v", tc.flags, ferr, jerr, tc.wantErr)
		}
		if !reflect.DeepEqual(fopt, jopt) || !reflect.DeepEqual(fd, jd) {
			t.Errorf("%q: flags and JSON differ\nflags: %+v\njson:  %+v", tc.flags, fopt, jopt)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, new(bytes.Buffer)); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run([]string{"-in", "/does/not/exist.tsv"}, new(bytes.Buffer)); err == nil {
		t.Fatal("missing file accepted")
	}
	in := writeData(t)
	if err := run([]string{"-in", in, "-dist", "bogus"}, new(bytes.Buffer)); err == nil {
		t.Fatal("bad -dist accepted")
	}
	if err := run([]string{"-in", in, "-regulators", "NOPE"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown regulator accepted")
	}
	// A -regulators value of only separators must fail fast, not reach Learn
	// with a non-nil empty candidate list.
	for _, regs := range []string{",", " , ", ",,"} {
		if err := run([]string{"-in", in, "-regulators", regs}, new(bytes.Buffer)); err == nil {
			t.Fatalf("-regulators %q accepted", regs)
		}
	}
	// -p 0 and negatives must be rejected, not silently run sequentially.
	for _, p := range []string{"0", "-3"} {
		if err := run([]string{"-in", in, "-p", p}, new(bytes.Buffer)); err == nil {
			t.Fatalf("-p %s accepted", p)
		}
	}
	for _, w := range []string{"0", "-2"} {
		if err := run([]string{"-in", in, "-threads", w}, new(bytes.Buffer)); err == nil {
			t.Fatalf("-threads %s accepted", w)
		}
	}
	// A negative count used to learn with the default (or all the data);
	// the error names the request field the flag fills.
	for _, c := range []struct{ flag, value, field string }{
		{"-n", "-5", "n"}, {"-m", "-1", "m"}, {"-ganesh-runs", "-2", "ganesh_runs"},
		{"-updates", "-4", "updates"}, {"-trees", "-3", "trees"}, {"-splits", "-1", "splits"},
		{"-max-steps", "-5", "max_steps"},
	} {
		err := run([]string{"-in", in, "-quiet", "-out", filepath.Join(t.TempDir(), "net.xml"), c.flag, c.value}, new(bytes.Buffer))
		if want := c.field + " " + c.value; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s %s: got %v, want an error naming %q", c.flag, c.value, err, want)
		}
	}
	// Checkpoints have one format, so there is no flag to choose it.
	if err := run([]string{"-in", in, "-checkpoint-format", "binary"}, new(bytes.Buffer)); err == nil {
		t.Fatal("-checkpoint-format accepted; it is not a flag")
	}
	if err := run([]string{"-in", in, "-out-format", "bogus"}, new(bytes.Buffer)); err == nil {
		t.Fatal("bad -out-format accepted")
	}
	// An unwritable output path must surface a write error.
	if err := run([]string{"-in", in, "-max-steps", "8", "-quiet",
		"-out", filepath.Join(t.TempDir(), "missing-dir", "net.xml")}, new(bytes.Buffer)); err == nil {
		t.Fatal("unwritable output path accepted")
	}
}

// readEvents loads and schema-checks a -trace-out file.
func readEvents(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(evs); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestRunTraceAndMetrics: the acceptance path for the observability layer —
// a CLI run with -trace-out and -metrics-out must produce a schema-valid
// event log covering the whole pipeline and a parsable metrics dump, in both
// JSON and Prometheus form, sequentially and on p ranks.
func TestRunTraceAndMetrics(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	metrics := filepath.Join(dir, "metrics.json")
	prom := filepath.Join(dir, "metrics.prom")
	err := run([]string{"-in", in, "-out", filepath.Join(dir, "net.xml"),
		"-max-steps", "8", "-quiet", "-p", "2", "-threads", "2",
		"-trace-out", trace, "-metrics-out", metrics}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	evs := readEvents(t, trace)
	want := map[string]bool{
		obs.TypeRunStart: false, obs.TypeRunEnd: false,
		obs.TypeTaskStart: false, obs.TypeTaskEnd: false,
		obs.TypeModuleStart: false, obs.TypeModuleDone: false,
		obs.TypePoolCost: false, obs.TypeCommStats: false,
		obs.TypeConsensus: false,
	}
	ranks := map[int]bool{}
	for _, ev := range evs {
		if _, ok := want[ev.Type]; ok {
			want[ev.Type] = true
		}
		ranks[ev.Rank] = true
	}
	for typ, seen := range want {
		if !seen {
			t.Errorf("no %s event in the CLI trace", typ)
		}
	}
	if !ranks[0] || !ranks[1] {
		t.Fatalf("merged trace missing a rank: %v", ranks)
	}
	if evs[0].Type != obs.TypeRunStart || evs[0].Run.Ranks != 2 || evs[0].Run.Workers != 2 {
		t.Fatalf("bad run.start: %+v", evs[0])
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var dump []map[string]any
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("metrics dump not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, m := range dump {
		names[m["name"].(string)] = true
	}
	for _, name := range []string{"pool_cost_total", "pool_items_total", "ganesh_decisions_total", "comm_sends_total"} {
		if !names[name] {
			t.Errorf("metrics dump missing %s (have %v)", name, names)
		}
	}

	// Prometheus text form via the .prom suffix, sequential engine.
	err = run([]string{"-in", in, "-out", filepath.Join(dir, "net2.xml"),
		"-max-steps", "8", "-quiet", "-metrics-out", prom}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text, []byte("# TYPE pool_cost_total counter")) {
		t.Fatalf("not Prometheus text format:\n%s", text[:min(len(text), 300)])
	}
}

// TestRunTraceDeterministic: two same-seed CLI runs must produce identical
// event streams modulo wall-clock fields, and attaching the sinks must not
// change the learned network.
func TestRunTraceDeterministic(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	base := []string{"-in", in, "-max-steps", "8", "-quiet", "-p", "2", "-threads", "2"}
	var traces [2][]obs.Event
	for i := range traces {
		tr := filepath.Join(dir, "trace"+strings.Repeat("x", i)+".jsonl")
		args := append(append([]string{}, base...),
			"-out", filepath.Join(dir, "net"+strings.Repeat("x", i)+".xml"), "-trace-out", tr)
		if err := run(args, new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
		traces[i] = readEvents(t, tr)
	}
	if err := obs.DiffCanonical(traces[0], traces[1]); err != nil {
		t.Fatal(err)
	}
	// Result invisibility: same network with and without the sinks.
	if err := run(append(append([]string{}, base...),
		"-out", filepath.Join(dir, "bare.xml")), new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	read := func(name string) *result.Network {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		net, err := result.ReadXML(f)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	if !result.Equal(read("net.xml"), read("bare.xml")) {
		t.Fatal("attaching observability sinks changed the learned network")
	}
}

// TestRunPprofFlags: the profiling flags must produce non-empty pprof files.
func TestRunPprofFlags(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	heap := filepath.Join(dir, "heap.pb.gz")
	err := run([]string{"-in", in, "-out", filepath.Join(dir, "net.xml"),
		"-max-steps", "8", "-quiet", "-pprof-cpu", cpu, "-pprof-heap", heap}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestRunThreadsIdentical: the CLI must produce byte-identical networks for
// every -threads value, alone and combined with -p.
func TestRunThreadsIdentical(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	outputs := map[string][]string{
		"w1.xml":   {"-in", in, "-max-steps", "8", "-quiet"},
		"w4.xml":   {"-in", in, "-max-steps", "8", "-quiet", "-threads", "4"},
		"p2w3.xml": {"-in", in, "-max-steps", "8", "-quiet", "-p", "2", "-threads", "3"},
	}
	nets := map[string]*result.Network{}
	for name, args := range outputs {
		out := filepath.Join(dir, name)
		if err := run(append(args, "-out", out), new(bytes.Buffer)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		nets[name], err = result.ReadXML(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, net := range nets {
		if !result.Equal(net, nets["w1.xml"]) {
			t.Fatalf("%s differs from single-worker run", name)
		}
	}
}

// TestRunTimeoutDrainsAndResumes: -timeout cancels the run cleanly — the
// error is a *core.CancelledError carrying core.ErrDeadline and naming the
// checkpoint directory, the exit code is the distinct cancellation code 3,
// and a rerun without the timeout resumes to the identical network.
func TestRunTimeoutDrainsAndResumes(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	out := filepath.Join(dir, "net.xml")
	// A 1 ns timeout has certainly expired by the first cancellation check.
	err := run([]string{"-in", in, "-out", out, "-quiet",
		"-checkpoint", ckpt, "-timeout", "1ns"}, new(bytes.Buffer))
	if err == nil {
		t.Fatal("run with an expired -timeout returned no error")
	}
	var ce *core.CancelledError
	if !errors.As(err, &ce) || !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("got %v, want a *CancelledError wrapping ErrDeadline", err)
	}
	if ce.CheckpointDir != ckpt {
		t.Fatalf("CancelledError names %q, want the -checkpoint dir %q", ce.CheckpointDir, ckpt)
	}
	if !strings.Contains(err.Error(), ckpt) {
		t.Fatalf("error %q does not print the checkpoint path", err)
	}
	if exitCode(err) != 3 {
		t.Fatalf("exit code %d, want the cancellation code 3", exitCode(err))
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("cancelled run still wrote the output network")
	}
	// Reference network: a clean run without checkpointing.
	ref := filepath.Join(dir, "ref.xml")
	if err := run([]string{"-in", in, "-out", ref, "-quiet"}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	// Resume over the drained directory.
	if err := run([]string{"-in", in, "-out", out, "-quiet", "-checkpoint", ckpt}, new(bytes.Buffer)); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	read := func(path string) *result.Network {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n, err := result.ReadXML(f)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if !result.Equal(read(out), read(ref)) {
		t.Fatal("resumed network differs from the uninterrupted run")
	}
}

// TestRunCheckpointOfAnotherRunRefused: a -checkpoint directory resumes only
// the run that wrote it. A rerun with a flag that changes the learned network
// is refused and writes nothing; one that changes only how the run executes
// resumes to the identical network.
func TestRunCheckpointOfAnotherRunRefused(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	ref := filepath.Join(dir, "ref.xml")
	if err := run([]string{"-in", in, "-out", ref, "-quiet", "-checkpoint", ckpt}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		flags   []string
		refused bool
	}{
		{[]string{"-seed", "9"}, true},
		{[]string{"-max-steps", "16"}, true},
		{[]string{"-threads", "2"}, false},
	} {
		t.Run(strings.Join(tc.flags, " "), func(t *testing.T) {
			out := filepath.Join(dir, fmt.Sprintf("rerun%d.xml", i))
			args := append([]string{"-in", in, "-out", out, "-quiet", "-checkpoint", ckpt}, tc.flags...)
			err := run(args, new(bytes.Buffer))
			if tc.refused {
				if err == nil || !strings.Contains(err.Error(), "delete the checkpoint directory") {
					t.Fatalf("got %v, want a refusal telling the user to delete the checkpoint directory", err)
				}
				if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
					t.Fatal("refused run still wrote a network")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("resumed network differs from the first run (%v)", err)
			}
		})
	}
}

// TestRunSignalContextDrains: a fired lifetime context (the SIGINT/SIGTERM
// path through runCtx) drains exactly like -timeout, as ErrCancelled.
func TestRunSignalContextDrains(t *testing.T) {
	in := writeData(t)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal has already arrived
	err := runCtx(ctx, []string{"-in", in, "-out", filepath.Join(dir, "net.xml"), "-quiet",
		"-checkpoint", filepath.Join(dir, "ckpt")}, new(bytes.Buffer))
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if exitCode(err) != 3 {
		t.Fatalf("exit code %d, want 3", exitCode(err))
	}
}

// TestRunTimeoutValidation: a negative -timeout is rejected up front, and an
// ordinary failure keeps exit code 1.
func TestRunTimeoutValidation(t *testing.T) {
	in := writeData(t)
	err := run([]string{"-in", in, "-timeout", "-1s"}, new(bytes.Buffer))
	if err == nil {
		t.Fatal("negative -timeout accepted")
	}
	if exitCode(err) != 1 {
		t.Fatalf("validation failure got exit code %d, want 1", exitCode(err))
	}
}

// Command benchmark is the repository's one named, repeatable benchmark:
// four workloads, end-to-end and per-layer metrics, a traced run, and a
// compare gate. See README.md in this directory for the workloads, what each
// metric means, which layer should move which number, and how to run it.
//
//	go run ./benchmark                       # every workload, seed 1
//	go run ./benchmark -workload assign -seed 7 -trace
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

// Run is the record of one workload run: what was measured, how many
// operations were attempted and failed, and every metric by name.
type Run struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   float64          `json:"seconds"`
	WallS     float64          `json:"wall_s"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailRatio float64          `json:"fail_ratio"`
	Errors    []string         `json:"errors,omitempty"`
	SpanFile  string           `json:"span_file,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
}

// File is what -out writes: the environment stamp and one or more runs.
type File struct {
	Env  Env   `json:"env"`
	Runs []Run `json:"runs"`
}

// run is the state of one workload run in progress.
type run struct {
	cfg     config
	mu      sync.Mutex // guards rec.Attempted, rec.Failed, rec.Errors
	host    host
	tr      *tracer // nil when untraced
	root    int     // the workload's span
	workDir string  // scratch space on real disk, removed when the run ends
	rec     Run
}

// op counts one attempted operation: a learn or an HTTP request. The serve
// workload's clients count from their own goroutines.
func (r *run) op() {
	r.mu.Lock()
	r.rec.Attempted++
	r.mu.Unlock()
}

// fail counts a failed operation and keeps its message, which names the
// workload and seed so the failure can be replayed.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec.Failed++
	msg := fmt.Sprintf("workload %s seed %d: ", r.cfg.workload, r.cfg.seed) + fmt.Sprintf(format, args...)
	if len(r.rec.Errors) < 20 {
		r.rec.Errors = append(r.rec.Errors, msg)
	}
	fmt.Fprintln(os.Stderr, "benchmark: FAILED:", msg)
}

// broken reports a failure outside the counted operations (a probe, a
// set-up step): one more attempted operation, failed.
func (r *run) broken(format string, args ...any) {
	r.op()
	r.fail(format, args...)
}

func (r *run) set(name string, v Value) { r.rec.Metrics[name] = v }

// budget is -seconds as a duration.
func (r *run) budget() time.Duration {
	return time.Duration(r.cfg.seconds * float64(time.Second))
}

// runWorkload executes one workload and returns its record.
func runWorkload(cfg config) (Run, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return Run{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	r := &run{
		cfg:  cfg,
		host: host{iters: refIters},
		rec: Run{
			Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
			Metrics: map[string]Value{},
		},
	}
	if cfg.quick {
		r.host.iters = refItersQuick
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return Run{}, err
	}
	workDir, err := os.MkdirTemp(cfg.outDir, "work-"+cfg.workload+"-")
	if err != nil {
		return Run{}, err
	}
	r.workDir = workDir
	defer os.RemoveAll(workDir)
	if cfg.trace {
		r.tr = newTracer(cfg.workload)
	}
	start := now()
	runSpan := r.tr.begin(-1, "run", 0)
	r.root = r.tr.begin(runSpan, "workload."+cfg.workload, 0)
	if err := w.run(r); err != nil {
		// A set-up error leaves nothing to measure; it is still a failed
		// operation, reported like any other.
		r.broken("%v", err)
	}
	r.tr.end(r.root)
	r.tr.end(runSpan)
	r.rec.WallS = since(start).Seconds()
	r.set("peak_rss_mb", scalar("MB", peakRSSMB()))
	if r.rec.Attempted > 0 {
		r.rec.FailRatio = float64(r.rec.Failed) / float64(r.rec.Attempted)
	}
	r.set("fail_ratio", scalar("ratio", r.rec.FailRatio))
	r.set("host.ref_ns", summarize("ns", r.host.readings))
	if r.tr != nil {
		if r.rec.SpanFile, err = r.tr.write(cfg.outDir); err != nil {
			return Run{}, err
		}
	}
	// Every declared metric is reported on every workload; 0 marks one this
	// workload does not exercise.
	for _, m := range metricDefs {
		if _, ok := r.rec.Metrics[m.Name]; !ok && (cfg.trace || m.Kind != perLayer) {
			r.set(m.Name, scalar(m.Unit, 0))
		}
	}
	return r.rec, nil
}

// printRun lists every metric of a run by name with its unit.
func printRun(w io.Writer, rec Run) {
	fmt.Fprintf(w, "== %s  seed=%d trace=%v  wall=%.1fs  attempted=%d failed=%d fail_ratio=%g ==\n",
		rec.Workload, rec.Seed, rec.Trace, rec.WallS, rec.Attempted, rec.Failed, rec.FailRatio)
	if rec.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", rec.SpanFile)
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ki, kj := kindOf(names[i]), kindOf(names[j])
		if ki != kj {
			return ki < kj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		v := rec.Metrics[name]
		if def, ok := metricByName(name); ok && !def.on(rec.Workload) {
			continue
		}
		line := fmt.Sprintf("  %-28s %14.6g %-6s", name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf("  n=%d min=%.6g q1=%.6g q3=%.6g", v.N, v.Min, v.Q1, v.Q3)
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine is the machine-readable last line of a single-workload run:
// BENCHMARK.json's end_to_end metrics for an untraced run, its per_layer
// metrics for a traced one (0 for a metric the workload does not exercise).
func resultLine(rec Run) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range metricDefs {
		if m.everywhere() != rec.Trace {
			v := rec.Metrics[m.Name]
			metrics[m.Name] = mv{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Failed == 0 && rec.Attempted > 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func writeFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runAll runs every workload for `runs` consecutive seeds, each in its own
// child process so peak_rss_mb and the heap belong to one workload, and
// merges the children's records into one file.
func runAll(cfg config, runs int, outPath string) (failed bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	all := File{Env: stampEnv()}
	for k := 0; k < runs; k++ {
		for _, name := range workloadNames() {
			part := filepath.Join(cfg.outDir, fmt.Sprintf("part-%s-%d.json", name, os.Getpid()))
			cmd := exec.Command(exe,
				"-workload", name, "-seed", strconv.FormatUint(cfg.seed+uint64(k), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace="+strconv.FormatBool(cfg.trace), "-quick="+strconv.FormatBool(cfg.quick), "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var exit *exec.ExitError
			if runErr != nil && !errors.As(runErr, &exit) {
				return false, runErr
			}
			failed = failed || runErr != nil
			f, err := readFile(part)
			if err != nil {
				return false, fmt.Errorf("workload %s left no record: %w", name, err)
			}
			os.Remove(part)
			all.Runs = append(all.Runs, f.Runs...)
		}
	}
	if err := writeFile(outPath, all); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s (%d runs)\n", outPath, len(all.Runs))
	return failed, nil
}

// outDir holds the span files, the scratch space and the default -out.
var outDir = filepath.Join("benchmark", "out")

// joinTrace rewrites "-trace 0" and "-trace 1" as "-trace=0" and "-trace=1":
// the flag is boolean (-trace alone turns tracing on), and the harness that
// runs the benchmark passes its value as a separate argument.
func joinTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	os.Exit(mainCode(os.Args[1:]))
}

// mainCode is main returning its exit code: 0 on success, 1 when an
// operation failed or a comparison regressed, 2 on a usage or I/O error.
func mainCode(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed: feeds synth.Config.Seed and Options.Seed only")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds each run measures for")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and the span file (default: end-to-end metrics only)")
	out := fs.String("out", filepath.Join(outDir, "bench.json"), "write the results as JSON here")
	runs := fs.Int("runs", 1, "without -workload: repeat every workload for this many consecutive seeds")
	quick := fs.Bool("quick", false, "tiny sizes and one repetition (the tier-1 test)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(joinTrace(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two result files")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments:", fs.Args())
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, quick: *quick, outDir: outDir}
	if cfg.workload == "" {
		failed, err := runAll(cfg, *runs, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if failed {
			return 1
		}
		return 0
	}
	rec, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := writeFile(*out, File{Env: stampEnv(), Runs: []Run{rec}}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	printRun(os.Stdout, rec)
	fmt.Println(resultLine(rec))
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

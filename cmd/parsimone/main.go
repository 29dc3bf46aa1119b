// Command parsimone learns a module network from a TSV expression data set,
// mirroring the paper's tool: GaneSH co-clustering, consensus clustering,
// and module learning, on p message-passing ranks (-p, default 1; the
// network is identical for every p).
//
// Usage:
//
//	parsimone -in expression.tsv -out network.xml [flags]
//
// Input format: one row per variable — name, then one tab-separated value
// per observation; an optional header line is skipped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/obs"
	"parsimone/internal/result"
	"parsimone/internal/serve"
)

// writeFileWith creates path, streams fn into it, and surfaces close errors
// (buffered-write failures a deferred close would swallow).
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// resolveOutFormat maps the -out-format flag (and, for auto, the -out
// suffix) to a concrete format.
func resolveOutFormat(flag, out string) (string, error) {
	switch flag {
	case "xml", "json", "binary":
		return flag, nil
	case "auto":
		switch {
		case strings.HasSuffix(out, ".json"):
			return "json", nil
		case strings.HasSuffix(out, ".bin"):
			return "binary", nil
		default:
			return "xml", nil
		}
	default:
		return "", fmt.Errorf("unknown -out-format %q (want auto, xml, json, or binary)", flag)
	}
}

// verifyNetworkFile reloads a just-written network file and checks it
// decodes to exactly the network that was written — an end-to-end check of
// the serialization path (-verify-out).
func verifyNetworkFile(path, format string, want *result.Network) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var got *result.Network
	switch format {
	case "json":
		got, err = result.ReadJSON(f)
	case "binary":
		got, err = result.ReadBinary(f)
	default:
		got, err = result.ReadXML(f)
	}
	if err != nil {
		return fmt.Errorf("verifying %s: %w", path, err)
	}
	if !result.Equal(got, want) {
		return fmt.Errorf("verifying %s: reloaded network differs from the learned one", path)
	}
	return nil
}

// learnFlags registers the flags that describe the learning problem and its
// execution shape, parsing them straight into the serve.JobRequest a POST
// /api/v1/jobs body decodes to. JobRequest.Options is then the one place
// either surface's settings become core.Options; as there, a zero count or
// seed keeps the engine default.
func learnFlags(fs *flag.FlagSet) *serve.JobRequest {
	req := new(serve.JobRequest)
	fs.IntVar(&req.Ranks, "p", 1, "number of message-passing ranks")
	fs.IntVar(&req.Workers, "threads", 1, "intra-rank worker goroutines per rank (W); the network is identical for every (p, W)")
	fs.Uint64Var(&req.Seed, "seed", 1, "PRNG seed (0 keeps the default, as in the parsimoned API)")
	fs.IntVar(&req.GaneshRuns, "ganesh-runs", 1, "number of GaneSH co-clustering runs (G)")
	fs.IntVar(&req.Updates, "updates", 1, "GaneSH update steps per run (U)")
	fs.IntVar(&req.Trees, "trees", 1, "regression trees per module (R)")
	fs.IntVar(&req.Splits, "splits", 2, "splits chosen per tree node (J)")
	fs.IntVar(&req.MaxSteps, "max-steps", 64, "bootstrap sampling cap per split (S)")
	fs.StringVar(&req.Dist, "dist", "static", "parallel split distribution: static blocks (scan is an alias) or dynamic chunks; both select with the paper's segmented scan")
	fs.IntVar(&req.MaxRestarts, "max-restarts", 0, "restart the world up to this many times after a rank failure, resuming from -checkpoint if set")
	fs.Func("regulators", "comma-separated candidate regulator names (default: all variables)", func(s string) error {
		if s != "" {
			req.Regulators = strings.Split(s, ",")
		}
		return nil
	})
	fs.IntVar(&req.N, "n", 0, "use only the first n variables (0 = all)")
	fs.IntVar(&req.M, "m", 0, "use only the first m observations (0 = all)")
	return req
}

func main() {
	// SIGINT/SIGTERM drain the run cooperatively: every rank stops at its
	// next deterministic cancellation check, the durable checkpoints are the
	// resume state, and the process exits with the cancellation exit code.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parsimone:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode distinguishes a cooperative drain (deadline or signal; the
// *CancelledError already names the checkpoint directory the run drained
// to) from an ordinary failure.
func exitCode(err error) int {
	var ce *core.CancelledError
	if errors.As(err, &ce) {
		return 3
	}
	return 1
}

// run executes the CLI with its own flag set so it is testable.
func run(args []string, stdout io.Writer) error {
	return runCtx(context.Background(), args, stdout)
}

// runCtx is run under a caller-supplied lifetime context (the signal
// context in main): when it fires — or when -timeout expires — the run
// drains to its checkpoints and returns a *core.CancelledError.
func runCtx(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("parsimone", flag.ContinueOnError)
	req := learnFlags(fs)
	var (
		in         = fs.String("in", "", "input TSV expression matrix (required)")
		out        = fs.String("out", "network.xml", "output network file (.xml, .json, or .bin)")
		outFormat  = fs.String("out-format", "auto", "output network format: auto (by -out suffix: .json → json, .bin → binary, else xml), xml, json, or binary")
		verifyOut  = fs.Bool("verify-out", false, "after writing -out, reload it and verify it decodes to the identical network")
		ckptDir    = fs.String("checkpoint", "", "checkpoint directory: task outputs and per-module progress are persisted there, stamped with the run key (a hash of the data and every option that changes the network); a rerun with the same key resumes from whatever checkpoints exist, learning the identical network, and any other run is refused: delete the directory to re-learn")
		timeout    = fs.Duration("timeout", 0, "cancel the run after this long (0 = none): it drains cleanly to -checkpoint, exits with code 3, and a rerun with the same flags resumes to the identical network; SIGINT/SIGTERM drain the same way")
		acyclic    = fs.Bool("acyclic", false, "print the acyclic module graph after learning")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
		traceOut   = fs.String("trace-out", "", "write the structured run-event log (JSON lines, rank-merged) to this file")
		metricsOut = fs.String("metrics-out", "", "write the metrics dump to this file (JSON, or Prometheus text format with a .prom suffix)")
		pprofCPU   = fs.String("pprof-cpu", "", "write a CPU profile of the learning run to this file")
		pprofHeap  = fs.String("pprof-heap", "", "write a heap profile taken after learning to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	if req.Ranks < 1 {
		return fmt.Errorf("-p must be ≥ 1, got %d", req.Ranks)
	}
	if req.Workers < 1 {
		return fmt.Errorf("-threads must be ≥ 1, got %d", req.Workers)
	}
	if req.MaxRestarts < 0 {
		return fmt.Errorf("-max-restarts must be ≥ 0, got %d", req.MaxRestarts)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be ≥ 0, got %v", *timeout)
	}
	if *ckptDir != "" {
		if fi, err := os.Stat(*ckptDir); err == nil && !fi.IsDir() {
			return fmt.Errorf("-checkpoint %q exists and is not a directory", *ckptDir)
		}
	}
	format, err := resolveOutFormat(*outFormat, *out)
	if err != nil {
		return err
	}

	d, err := dataset.LoadTSV(*in)
	if err != nil {
		return err
	}
	d, opt, err := req.Options(d)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	logf("loaded %d variables × %d observations from %s", d.N, d.M, *in)

	opt.CheckpointDir = *ckptDir
	opt.Events = *traceOut != ""
	if *metricsOut != "" {
		opt.Metrics = obs.NewRegistry()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt.Ctx = ctx

	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	logf("learning on %d ranks × %d workers ...", req.Ranks, req.Workers)
	output, err := core.LearnParallel(req.Ranks, d, opt)
	if err != nil {
		return err
	}
	for _, ev := range output.Recovery {
		logf("recovered: %s", ev)
	}
	logf("learned %d modules; task times: %s", len(output.Network.Modules), output.Timers)

	if *traceOut != "" {
		if err := writeFileWith(*traceOut, func(w io.Writer) error {
			return obs.WriteJSONL(w, output.Events)
		}); err != nil {
			return fmt.Errorf("writing %s: %w", *traceOut, err)
		}
		logf("wrote %d run events to %s", len(output.Events), *traceOut)
	}
	if *metricsOut != "" {
		dump := opt.Metrics.WriteJSON
		if strings.HasSuffix(*metricsOut, ".prom") {
			dump = opt.Metrics.WritePrometheus
		}
		if err := writeFileWith(*metricsOut, dump); err != nil {
			return fmt.Errorf("writing %s: %w", *metricsOut, err)
		}
		logf("wrote metrics to %s", *metricsOut)
	}
	if *pprofHeap != "" {
		if err := writeFileWith(*pprofHeap, func(w io.Writer) error {
			runtime.GC() // settle allocations so the profile reflects live data
			return pprof.WriteHeapProfile(w)
		}); err != nil {
			return fmt.Errorf("writing %s: %w", *pprofHeap, err)
		}
		logf("wrote heap profile to %s", *pprofHeap)
	}

	if err := writeFileWith(*out, func(w io.Writer) error {
		switch format {
		case "json":
			return output.Network.WriteJSON(w)
		case "binary":
			return output.Network.WriteBinary(w)
		default:
			return output.Network.WriteXML(w)
		}
	}); err != nil {
		return fmt.Errorf("writing %s: %w", *out, err)
	}
	logf("wrote %s (%s)", *out, format)
	if *verifyOut {
		if err := verifyNetworkFile(*out, format, output.Network); err != nil {
			return err
		}
		logf("verified %s reloads to the identical network", *out)
	}

	if *acyclic {
		edges := result.EnforceAcyclic(output.Network.ModuleGraph(), len(output.Network.Modules))
		fmt.Fprintf(stdout, "module graph (%d edges, acyclic):\n", len(edges))
		for _, e := range edges {
			fmt.Fprintf(stdout, "  M%d -> M%d  (score %.3f)\n", e.From, e.To, e.Score)
		}
	}
	return nil
}

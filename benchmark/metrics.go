package main

// The benchmark's declarations: the workloads with the reason each exists,
// and every metric with its unit, direction, bound and the workloads it is
// measured on. BENCHMARK.json at the repository root repeats the names, and
// bench_test.go keeps the two equal.

// defaultSeconds is how long one run measures (BENCHMARK.json run_seconds).
const defaultSeconds = 24

type kind int

const (
	// endToEnd metrics are what a user of the system sees. -compare gates
	// them by their bound. Those measured on every workload are
	// BENCHMARK.json's end_to_end and the last line of an untraced run; one
	// that is measured on a single workload (speedup_2 has no meaning on a
	// sequential learn) has to be listed under per_layer there, because that
	// file's end_to_end metrics are read on every workload and are never 0.
	endToEnd kind = iota
	// perLayer metrics time or count one layer. They are the last line of a
	// traced run; nothing gates them.
	perLayer
)

var (
	batch   = []string{"assign", "cluster", "hybrid"}
	quality = []string{"assign", "cluster"}
	hybrid  = []string{"hybrid"}
	served  = []string{"serve"}
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening that counts as a regression; 0: not gated
	Kind   kind
	// Workloads the metric is measured on; nil means all. Elsewhere it
	// reads 0.
	Workloads []string
	// Exact marks a count that must repeat exactly between two runs of the
	// same commit, seed and size.
	Exact bool
}

func (m metricDef) on(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// everywhere reports whether m is one of BENCHMARK.json's end_to_end
// metrics: user-visible and measured on every workload.
func (m metricDef) everywhere() bool { return m.Kind == endToEnd && m.Workloads == nil }

func e2e(name, unit, better string, bound float64, workloads []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, Kind: endToEnd, Workloads: workloads}
}

func layer(name, unit, better string, workloads []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Kind: perLayer, Workloads: workloads}
}

func count(name string, workloads []string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: "lower", Kind: perLayer, Workloads: workloads, Exact: true}
}

var metricDefs = []metricDef{
	e2e("setup_s", "s", "lower", 0.25, nil),
	e2e("learn_s", "s", "lower", 0.25, nil),
	e2e("peak_rss_mb", "MB", "lower", 0.15, nil),
	e2e("speedup_2", "ratio", "higher", 0.10, hybrid),

	// What the service's user sees beside learn_s. They are measured by every
	// run of serve, but two sets of runs of one commit do not repeat them
	// within a tenth (README, "How steady it is"), so nothing gates them.
	// job_p50_s is the same reading as learn_s on serve.
	layer("job_p50_s", "s", "lower", served),
	layer("jobs_per_s", "1/s", "higher", served),
	layer("hit_p50_s", "s", "lower", served),
	layer("predict_p50_s", "s", "lower", served),
	layer("resume_p50_s", "s", "lower", served),
	// learn_s as measured, before host.go takes it to the nominal host, and
	// the reference kernel's readings.
	layer("learn_wall_s", "s", "lower", nil),
	layer("host.ref_ns", "ns", "lower", nil),
	// In every record, and -compare fails on any increase. It is 0, which an
	// end_to_end metric of BENCHMARK.json may not be.
	layer("fail_ratio", "ratio", "lower", nil),

	layer("prng.fill_ns_per_draw", "ns", "lower", []string{"assign"}),
	layer("prng.substream_ns", "ns", "lower", []string{"assign"}),

	layer("score.prior_logml_ns", "ns", "lower", []string{"assign"}),
	layer("score.kernel_logml_ns", "ns", "lower", []string{"assign"}),
	layer("score.memo_logml_ns", "ns", "lower", []string{"assign"}),
	layer("score.memo_hit_ratio", "ratio", "higher", batch),
	count("score.kernel_fallbacks", batch),

	layer("splits.learn_s", "s", "lower", batch),
	count("splits.candidates", batch),
	count("splits.steps", batch),
	layer("splits.ns_per_step", "ns", "lower", batch),
	layer("splits.gather_s", "s", "lower", []string{"hybrid"}),
	layer("splits.scan_s", "s", "lower", []string{"hybrid"}),
	layer("splits.dynamic_s", "s", "lower", []string{"hybrid"}),

	layer("ganesh.run_s", "s", "lower", batch),
	count("ganesh.decisions", batch),
	layer("ganesh.obs_sample_s", "s", "lower", batch),
	layer("ganesh.cooccurrence_s", "s", "lower", batch),

	layer("consensus.cluster_s", "s", "lower", batch),
	count("consensus.modules", batch),
	count("consensus.iters", batch),

	layer("tree.build_s", "s", "lower", batch),

	layer("core.ganesh_s", "s", "lower", batch),
	layer("core.consensus_s", "s", "lower", batch),
	layer("core.modules_s", "s", "lower", batch),
	layer("core.prepare_s", "s", "lower", batch),
	layer("core.learn_cpu_s", "s", "lower", batch),
	layer("core.trace_overhead", "ratio", "lower", batch),
	count("core.pool_cost", batch),
	layer("core.ckpt_overhead_s", "s", "lower", []string{"cluster"}),
	layer("core.resume_s", "s", "lower", []string{"cluster"}),

	layer("pool.for_ns_per_item", "ns", "lower", []string{"hybrid"}),
	layer("pool.w2_s", "s", "lower", []string{"hybrid"}),
	layer("pool.worker_imbalance", "ratio", "lower", []string{"hybrid"}),

	layer("comm.run_spawn_us", "us", "lower", []string{"hybrid"}),
	layer("comm.allreduce_us", "us", "lower", []string{"hybrid"}),
	layer("comm.allgatherv_us", "us", "lower", []string{"hybrid"}),
	layer("comm.bcast_us", "us", "lower", []string{"hybrid"}),
	count("comm.gather_sends", []string{"hybrid"}),
	count("comm.gather_elems", []string{"hybrid"}),
	count("comm.gather_collectives", []string{"hybrid"}),
	count("comm.scan_sends", []string{"hybrid"}),
	count("comm.scan_elems", []string{"hybrid"}),
	count("comm.scan_collectives", []string{"hybrid"}),
	count("comm.dynamic_sends", []string{"hybrid"}),
	count("comm.dynamic_elems", []string{"hybrid"}),
	count("comm.dynamic_collectives", []string{"hybrid"}),

	layer("result.write_binary_mb_s", "MB/s", "higher", nil),
	layer("result.read_binary_mb_s", "MB/s", "higher", nil),
	count("result.network_bytes", nil),
	count("wire.ckpt_bytes", []string{"cluster", "serve"}),

	layer("dataset.read_tsv_mb_s", "MB/s", "higher", nil),
	layer("dataset.write_tsv_mb_s", "MB/s", "higher", nil),

	layer("jobs.admission_overhead_s", "s", "lower", []string{"serve"}),

	layer("serve.submit_s", "s", "lower", []string{"serve"}),
	layer("serve.status_s", "s", "lower", []string{"serve"}),
	layer("serve.network_s", "s", "lower", []string{"serve"}),
	layer("serve.job_p90_s", "s", "lower", []string{"serve"}),
	layer("serve.hit_p90_s", "s", "lower", []string{"serve"}),
	layer("serve.predict_p90_s", "s", "lower", []string{"serve"}),
	count("serve.cache_hits", []string{"serve"}),
	count("serve.cache_misses", []string{"serve"}),
	count("serve.coalesced", []string{"serve"}),
	layer("serve.heap_per_job_kb", "kB", "lower", []string{"serve"}),

	layer("result.ari", "ratio", "higher", quality),
	count("result.modules", quality),
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// kindOf orders a run's printout: end-to-end first, per-layer last.
func kindOf(name string) kind {
	if m, ok := metricByName(name); ok {
		return m.Kind
	}
	return perLayer
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workload{
	{"assign", "split scoring is 97% of a sequential learn (64 data sets of N=64, M=32, every variable a candidate parent): the paper's hotspot; prng/score/splits changes show here, ganesh/consensus/comm do not", runAssign},
	{"cluster", "the inverse (10 data sets of N=480, M=32, 3 GaneSH runs, 8 candidate parents, 16 steps): GaneSH and consensus are ~80% of the learn over a 1.8 MB matrix; a split-scorer change moves little here", runCluster},
	{"hybrid", "each learn (40 data sets of N=48, M=24) run five ways - sequential, p=2 gather, p=2 segmented scan, p=3 dynamic coordinator, W=2 workers: splits exchange paths, worker pool and comm on identical work", runHybrid},
	{"serve", "the service user's path: 2 closed-loop clients run 120 small jobs (N=96, M=32) over loopback HTTP, then cache hits, then a restart that resumes from checkpoints: admission, HTTP, cache, wire", runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

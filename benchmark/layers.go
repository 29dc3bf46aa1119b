package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"

	"parsimone/internal/comm"
	"parsimone/internal/consensus"
	"parsimone/internal/dataset"
	"parsimone/internal/ganesh"
	"parsimone/internal/pool"
	"parsimone/internal/prng"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/tree"
)

// The traced run's per-layer measurements. Every layer is measured from
// outside: by timing calls into its exported functions and by reading the
// counters the engine already exposes. Per-layer times are wall seconds as
// measured.

// call times one call into a layer under a span named "<layer>.<Func>" and
// returns its wall seconds.
func (r *run) call(parent int, name string, rep int, fn func()) float64 {
	start := now()
	r.tr.do(parent, name, rep, fn)
	return since(start).Seconds()
}

// probe times reps calls of fn, each doing `items` units of work, and
// returns the cost of one unit in nanoseconds, one sample per call.
func (r *run) probe(name string, reps int, items float64, fn func()) []float64 {
	if r.cfg.quick {
		reps = 1
	}
	per := make([]float64, reps)
	for i := range per {
		per[i] = r.call(r.root, name, i, fn) * 1e9 / items
	}
	return per
}

// nsPer summarises probe samples as they are, usPer in microseconds, and
// mbPerS turns nanoseconds per byte into MB/s.
func nsPer(ns []float64) Value { return summarize("ns", ns) }

func usPer(ns []float64) Value {
	return summarize("us", mapped(ns, func(x float64) float64 { return x / 1e3 }))
}

func mbPerS(ns []float64) Value {
	return summarize("MB/s", mapped(ns, func(x float64) float64 { return 1e3 / x }))
}

func mapped(xs []float64, f func(float64) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// wants reports whether the named metric is measured on this workload.
func (r *run) wants(name string) bool {
	m, ok := metricByName(name)
	return ok && m.on(r.cfg.workload)
}

var probeSink float64

// batchLayers is the traced half of a batch run, over the same instances as
// the plain pass before it: a pass with the event stream and the metrics
// registry attached, for the tracing overhead and the engine's own counters;
// a pass of direct calls into each layer; then the micro-probes. Times are
// means per instance, counts are totals over the instances.
func (r *run) batchLayers(spec batchSpec, insts []*instance, plain passSums) {
	traced := r.pass(spec, insts, "pass.traced", 0, true)
	if !traced.ok {
		return // the failures are counted
	}
	k := float64(len(insts))
	per := func(total float64) Value { return scalar("s", total/k) }
	seq, seqTraced := plain.shapes["seq"], traced.shapes["seq"]

	r.set("core.learn_cpu_s", per(seq.cpu))
	r.set("core.trace_overhead", scalar("ratio", traced.wall/plain.wall-1))
	for i, name := range []string{"core.ganesh_s", "core.consensus_s", "core.modules_s"} {
		r.set(name, per(seq.tasks[i]))
	}

	reg := seqTraced.reg
	hits, misses := total(reg, "kernel_memo_hits_total", ""), total(reg, "kernel_memo_misses_total", "")
	if hits+misses > 0 {
		r.set("score.memo_hit_ratio", scalar("ratio", hits/(hits+misses)))
	}
	r.set("score.kernel_fallbacks", scalar("count", total(reg, "kernel_table_misses_total", "")))
	var candidates, steps float64
	for _, s := range find(reg, "split_steps", "") {
		candidates += float64(s.Count)
		steps += s.Sum
	}
	r.set("splits.candidates", scalar("count", candidates))
	r.set("splits.steps", scalar("count", steps))
	r.set("ganesh.decisions", scalar("count", total(reg, "ganesh_decisions_total", "")))
	r.set("consensus.iters", scalar("count", float64(seqTraced.consIters)))
	r.set("core.pool_cost", scalar("count", total(reg, "pool_cost_total", "")))
	var modules int
	var ari float64
	for _, in := range insts {
		modules += len(in.out.Network.Modules)
		ari += result.AdjustedRandIndex(in.truth.ModuleOf, in.out.Network.ModuleOf())
	}
	r.set("consensus.modules", scalar("count", float64(modules)))
	if r.wants("result.ari") {
		r.set("result.ari", scalar("ratio", ari/k))
		r.set("result.modules", scalar("count", float64(modules)))
	}

	// The hybrid shapes: the same learns through each exchange path.
	for _, sh := range []struct{ shape, metric string }{
		{"gather", "splits.gather_s"}, {"scan", "splits.scan_s"}, {"dynamic", "splits.dynamic_s"}, {"w2", "pool.w2_s"},
	} {
		if sum := plain.shapes[sh.shape]; sum != nil {
			r.set(sh.metric, per(sum.wall))
		}
	}
	for _, name := range []string{"gather", "scan", "dynamic"} {
		if sum := plain.shapes[name]; sum != nil {
			r.set("comm."+name+"_sends", scalar("count", float64(sum.stats.Sends)))
			r.set("comm."+name+"_elems", scalar("count", float64(sum.stats.Elems)))
			r.set("comm."+name+"_collectives", scalar("count", float64(sum.stats.Collectives)))
		}
	}
	if sum := traced.shapes["w2"]; sum != nil {
		r.set("pool.worker_imbalance", scalar("ratio", total(sum.reg, "imbalance_workers", splits.PhaseAssign)/k))
	}

	if err := r.directLayers(insts, steps); err != nil {
		r.broken("direct layer calls: %v", err)
	}
	if r.wants("core.resume_s") {
		if err := r.checkpointPair(insts[0]); err != nil {
			r.broken("checkpoint pair: %v", err)
		}
	}
	r.microProbes(insts[0].out.Network, insts[0].tsv)
}

// directLayers walks the pipeline by hand on every instance, one exported
// call per layer, with the learn's own substream numbering, so each layer's
// time is seen without the others. steps is the traced pass's split-step
// count: the hand-walked splits.Learn does the same steps.
func (r *run) directLayers(insts []*instance, steps float64) error {
	sp := r.tr.begin(r.root, "pass.layers", 0)
	defer r.tr.end(sp)
	// prepare, ganesh.Run, co-occurrence, consensus, obs sampling, tree
	// building, split assignment: seconds summed over the instances.
	var sums [7]float64
	for i, in := range insts {
		if err := r.walk(sp, i, in, &sums); err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
	}
	k := float64(len(insts))
	for i, name := range []string{
		"core.prepare_s", "ganesh.run_s", "ganesh.cooccurrence_s", "consensus.cluster_s",
		"ganesh.obs_sample_s", "tree.build_s", "splits.learn_s",
	} {
		r.set(name, scalar("s", sums[i]/k))
	}
	if steps > 0 {
		r.set("splits.ns_per_step", scalar("ns", sums[6]*1e9/steps))
	}
	return nil
}

func (r *run) walk(sp, rep int, in *instance, sums *[7]float64) error {
	opt, prior := in.opt, in.opt.Prior
	var q *score.QData
	sums[0] += r.call(sp, "score.QuantizeData", rep, func() {
		work := in.data.Clone()
		work.Standardize()
		q = score.QuantizeData(work)
	})

	master := prng.New(opt.Seed)
	ensembles := make([][][]int, opt.GaneshRuns)
	for g := range ensembles {
		stream := master.Substream(uint64(g + 1))
		sums[1] += r.call(sp, "ganesh.Run", rep, func() {
			ensembles[g] = ganesh.Run(q, prior, opt.Ganesh, stream, nil).VarSnapshot()
		})
	}
	var a []float64
	sums[2] += r.call(sp, "ganesh.CoOccurrence", rep, func() {
		a = ganesh.CoOccurrence(q.N, ensembles, opt.CoOccurrenceThreshold)
	})
	var moduleVars [][]int
	var err error
	sums[3] += r.call(sp, "consensus.Cluster", rep, func() {
		moduleVars, err = consensus.Cluster(q.N, a, opt.Consensus)
	})
	if err != nil {
		return err
	}
	if len(moduleVars) != len(in.out.Modules) {
		return fmt.Errorf("hand-walked pipeline found %d modules, the learn %d", len(moduleVars), len(in.out.Modules))
	}

	// Observation sampling is reported for the largest module only.
	stream := master.Substream(uint64(opt.GaneshRuns + 1))
	var largest int
	var obsS float64
	for mi, vars := range moduleVars {
		var samples [][][]int
		gi := stream.Substream(uint64(mi + 1))
		t := r.call(sp, "ganesh.SampleObsClusterings", rep, func() {
			samples, _ = ganesh.SampleObsClusterings(q, prior, vars, opt.Module.Tree, gi, nil)
		})
		if len(vars) > largest {
			largest, obsS = len(vars), t
		}
		for _, clusters := range samples {
			sums[5] += r.call(sp, "tree.Build", rep, func() { tree.Build(q, prior, vars, clusters, nil) })
		}
	}
	sums[4] += obsS

	// Split assignment on the learn's own modules and trees.
	modules := make([][]int, len(in.out.Modules))
	trees := make([][]*tree.Tree, len(in.out.Modules))
	for i, mod := range in.out.Modules {
		modules[i], trees[i] = mod.Vars, mod.Trees
	}
	sums[6] += r.call(sp, "splits.Learn", rep, func() {
		splits.Learn(q, prior, modules, trees, opt.Module.Splits, stream, nil)
	})
	return nil
}

// checkpointPair measures, on one instance, what checkpointing adds to a
// learn and what a resume over a complete checkpoint directory costs.
func (r *run) checkpointPair(in *instance) error {
	ckpt := *in
	ckpt.opt.CheckpointDir = filepath.Join(r.workDir, "ckpt")
	ckpt.opt.BinaryCheckpoints = true
	for i, name := range []string{"core.ckpt_overhead_s", "core.resume_s"} {
		s, ok := r.learnOnce(&ckpt, shape{name: "checkpointed"}, r.root, i, false)
		if !ok {
			return fmt.Errorf("checkpointed learn %d failed", i)
		}
		t := s.wall
		if i == 0 {
			t -= in.wall
		}
		r.set(name, scalar("s", t))
	}
	size, err := dirBytes(ckpt.opt.CheckpointDir)
	r.set("wire.ckpt_bytes", scalar("count", float64(size)))
	return err
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	return size, err
}

// microProbes are the input-independent probes of the small layers, plus the
// codecs on this run's own network and data set.
func (r *run) microProbes(net *result.Network, tsv []byte) {
	if r.wants("prng.fill_ns_per_draw") {
		r.probePRNG()
	}
	if r.wants("score.prior_logml_ns") {
		r.probeScore()
	}
	if r.wants("pool.for_ns_per_item") {
		const items = 1 << 16
		r.set("pool.for_ns_per_item", nsPer(r.probe("pool.For", 20, items, func() {
			pool.For(items, 2, 0, func(int, int) float64 { return 1 })
		})))
	}
	if r.wants("comm.allreduce_us") {
		r.probeComm()
	}
	r.probeCodecs(net, tsv)
}

func (r *run) probePRNG() {
	const draws, buf = 1 << 22, 4096
	g := prng.New(r.cfg.seed)
	u := prng.NewUniform(60)
	dst := make([]int, buf)
	r.set("prng.fill_ns_per_draw", nsPer(r.probe("prng.Uniform.Fill", 5, draws, func() {
		for i := 0; i < draws/buf; i++ {
			u.Fill(g, dst)
			probeSink += float64(dst[0])
		}
	})))
	const streams = 20000
	r.set("prng.substream_ns", nsPer(r.probe("prng.MRG3.Substream", 5, streams, func() {
		for i := uint64(1); i <= streams; i++ {
			probeSink += float64(g.Substream(i).Next())
		}
	})))
}

// probeScore times the three logML paths on one fixed seeded stream of
// block statistics: 2^14 lookups drawn from 2048 distinct blocks of 1 to 60
// standard-normal values, so the memo sees both hits and misses.
func (r *run) probeScore() {
	const distinct, lookups = 2048, 1 << 14
	g := prng.New(r.cfg.seed)
	blocks := make([]score.Stats, distinct)
	for i := range blocks {
		for n := 1 + g.Intn(60); n > 0; n-- {
			blocks[i].Add(score.Quantize(g.Normal()))
		}
	}
	stream := make([]score.Stats, lookups)
	for i := range stream {
		stream[i] = blocks[g.Intn(distinct)]
	}
	prior := score.DefaultPrior()
	kernel := score.NewKernel(prior, 4096)
	memo := score.NewMemo(kernel, 0)
	for _, p := range []struct {
		name, span string
		logML      func(score.Stats) float64
	}{
		{"score.prior_logml_ns", "score.Prior.LogML", prior.LogML},
		{"score.kernel_logml_ns", "score.Kernel.LogML", kernel.LogML},
		{"score.memo_logml_ns", "score.Memo.LogML", memo.LogML},
	} {
		r.set(p.name, nsPer(r.probe(p.span, 9, lookups, func() {
			for _, s := range stream {
				probeSink += p.logML(s)
			}
		})))
	}
}

func (r *run) probeComm() {
	r.set("comm.run_spawn_us", usPer(r.probe("comm.Run", 9, 100, func() {
		for i := 0; i < 100; i++ {
			if _, err := comm.Run(2, func(*comm.Comm) error { return nil }); err != nil {
				r.broken("comm.Run: %v", err)
			}
		}
	})))

	// Each collective: 10^4 operations on two ranks, timed on rank 0 from
	// inside the world so spawning is not counted.
	ops := 10000
	if r.cfg.quick {
		ops = 100
	}
	sum := func(a, b int) int { return a + b }
	for _, p := range []struct {
		name, span string
		op         func(c *comm.Comm)
	}{
		{"comm.allreduce_us", "comm.AllReduce", func(c *comm.Comm) { comm.AllReduce(c, c.Rank(), sum) }},
		{"comm.allgatherv_us", "comm.AllGatherv", func(c *comm.Comm) { comm.AllGatherv(c, []int{c.Rank(), 1, 2, 3}) }},
		{"comm.bcast_us", "comm.Bcast", func(c *comm.Comm) { comm.Bcast(c, 0, 7) }},
	} {
		var err error
		v := r.probe(p.span, 3, float64(ops), func() {
			_, err = comm.Run(2, func(c *comm.Comm) error {
				comm.Barrier(c)
				for i := 0; i < ops; i++ {
					p.op(c)
				}
				return nil
			})
		})
		if err != nil {
			r.broken("%s: %v", p.span, err)
			continue
		}
		r.set(p.name, usPer(v))
	}
}

// probeCodecs times the network and data-set codecs on this run's own
// artifacts.
func (r *run) probeCodecs(net *result.Network, tsv []byte) {
	wire, err := networkBytes(net)
	if err != nil {
		r.broken("result.WriteBinary: %v", err)
		return
	}
	r.set("result.network_bytes", scalar("count", float64(len(wire))))
	r.set("result.write_binary_mb_s", mbPerS(r.probe("result.WriteBinary", 20, float64(len(wire)), func() {
		if _, err := networkBytes(net); err != nil {
			r.broken("result.WriteBinary: %v", err)
		}
	})))
	r.set("result.read_binary_mb_s", mbPerS(r.probe("result.ReadBinary", 20, float64(len(wire)), func() {
		if _, err := result.ReadBinary(bytes.NewReader(wire)); err != nil {
			r.broken("result.ReadBinary: %v", err)
		}
	})))
	var d *dataset.Data
	r.set("dataset.read_tsv_mb_s", mbPerS(r.probe("dataset.ReadTSV", 5, float64(len(tsv)), func() {
		if d, err = dataset.ReadTSV(bytes.NewReader(tsv)); err != nil {
			r.broken("dataset.ReadTSV: %v", err)
		}
	})))
	if d == nil {
		return
	}
	r.set("dataset.write_tsv_mb_s", mbPerS(r.probe("dataset.WriteTSV", 5, float64(len(tsv)), func() {
		var buf bytes.Buffer
		if err := d.WriteTSV(&buf); err != nil {
			r.broken("dataset.WriteTSV: %v", err)
		}
	})))
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"parsimone/internal/comm"
	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/obs"
	"parsimone/internal/result"
	"parsimone/internal/synth"
)

// The three batch workloads are one loop over different inputs: generate the
// run's instances, learn every one of them in each execution shape (one
// pass), check every network against the first one learned from the same
// instance, repeat the pass while -seconds lasts, and report the median over
// the passes of a pass's mean time per learn (host.go says in which seconds).
//
// A run learns many small instances, not one large one, because a learn's
// work follows what the sampler finds in its data: at one size and one set
// of options the wall time differs by a factor of five between seeds
// (coefficient of variation 0.4). The mean over k seeded instances varies by
// 1/sqrt(k) of that, and it is still plain wall time: an engine that does
// more work per learn reads slower.

// shape is one way of executing the same learn.
type shape struct {
	name  string
	world int // message-passing world size p; 0: the sequential engine (core.Learn)
	edit  func(*core.Options)
	// counted shapes sum into learn_s; the others are the baseline.
	counted bool
}

// batchSpec describes a batch workload: the shape of its data sets, how many
// instances a run learns (sized so that -seconds holds four passes or more)
// and how many of them the warm-up learns.
type batchSpec struct {
	n, m, k, warm          int
	quickN, quickM, quickK int
	edit                   func(*core.Options) // nil: the default options
	shapes                 []shape
}

var sequential = []shape{{name: "seq", counted: true}}

var assignSpec = batchSpec{
	n: 64, m: 32, k: 64, warm: 8,
	quickN: 40, quickM: 16, quickK: 2,
	shapes: sequential,
}

var clusterSpec = batchSpec{
	n: 480, m: 32, k: 10, warm: 1,
	quickN: 120, quickM: 16, quickK: 2,
	edit: func(o *core.Options) {
		o.GaneshRuns = 3
		o.Ganesh.Updates = 2
		// Strict consensus: only variables all three runs co-cluster. The
		// thresholded matrix is then block-structured and the power
		// iteration converges for every seed; the default 0.25 fails to
		// converge on about a third of the seeds at this size.
		o.CoOccurrenceThreshold = 0.9
		// Little split scoring: synth's regulators, which lead the data set,
		// are the only candidate parents, and a quarter of the default
		// bootstrap steps.
		o.Module.Splits.Candidates = []int{0, 1, 2, 3, 4, 5, 6, 7}
		o.Module.Splits.MaxSteps = 16
	},
	shapes: sequential,
}

var hybridSpec = batchSpec{
	n: 48, m: 24, k: 40, warm: 20,
	quickN: 40, quickM: 16, quickK: 2,
	shapes: []shape{
		{name: "seq"},
		{name: "gather", world: 2, counted: true},
		{name: "scan", world: 2, counted: true, edit: func(o *core.Options) { o.Module.Splits.ScanSelection = true }},
		// Two workers plus the blocked coordinator.
		{name: "dynamic", world: 3, counted: true, edit: func(o *core.Options) { o.Module.Splits.DynamicChunk = 64 }},
		{name: "w2", counted: true, edit: func(o *core.Options) { o.Workers = 2 }},
	},
}

func runAssign(r *run) error  { return r.runBatch(assignSpec) }
func runCluster(r *run) error { return r.runBatch(clusterSpec) }
func runHybrid(r *run) error  { return r.runBatch(hybridSpec) }

// instance is one learn problem of a run: a data set and the options to
// learn it with, both seeded from the run's seed and the instance's index.
type instance struct {
	data  *dataset.Data
	truth *synth.Truth
	tsv   []byte
	opt   core.Options
	// digest is the sha256 of the first network learned from the instance;
	// every later learn of it, in any shape, must produce the same bytes.
	digest [sha256.Size]byte
	seen   bool
	// A traced run keeps the sequential learn's output and wall seconds
	// for the direct layer calls.
	out  *core.Output
	wall float64
}

// instanceSeed keeps the instances of different runs apart: seeds s and s+1
// share no instance.
func instanceSeed(runSeed uint64, i int) uint64 { return runSeed*1000 + 1 + uint64(i) }

// newInstance generates data set i of the run and takes it through the TSV
// encoder and parser: the engine learns what a user's file would hold.
func (r *run) newInstance(parent, i, n, m int, edit func(*core.Options)) (*instance, error) {
	seed := instanceSeed(r.cfg.seed, i)
	in := &instance{}
	var err error
	r.tr.do(parent, "synth.Generate", i, func() {
		in.data, in.truth, err = synth.Generate(synth.Config{N: n, M: m, Seed: seed})
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	r.tr.do(parent, "dataset.WriteTSV", i, func() { err = in.data.WriteTSV(&buf) })
	if err != nil {
		return nil, err
	}
	in.tsv = append([]byte(nil), buf.Bytes()...)
	r.tr.do(parent, "dataset.ReadTSV", i, func() { in.data, err = dataset.ReadTSV(&buf) })
	if err != nil {
		return nil, err
	}
	in.opt = core.DefaultOptions()
	in.opt.Seed = seed
	if edit != nil {
		edit(&in.opt)
	}
	return in, nil
}

func networkBytes(net *result.Network) ([]byte, error) {
	var buf bytes.Buffer
	if err := net.WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// setupBatch is one complete set-up: generate the instances and run the
// warm-up, which learns the first few of them, going round the shapes.
func (r *run) setupBatch(spec batchSpec, parent int) ([]*instance, error) {
	n, m, k, warm := spec.n, spec.m, spec.k, spec.warm
	if r.cfg.quick {
		n, m, k, warm = spec.quickN, spec.quickM, spec.quickK, 1
	}
	if r.cfg.trace {
		k = max(1, k/2) // a traced run makes three passes; see batchLayers
	}
	insts := make([]*instance, k)
	for i := range insts {
		var err error
		if insts[i], err = r.newInstance(parent, i, n, m, spec.edit); err != nil {
			return nil, err
		}
	}
	for i := 0; i < min(warm, k); i++ {
		sh := spec.shapes[i%len(spec.shapes)]
		if _, ok := r.learnOnce(insts[i], sh, parent, i, false); !ok {
			return nil, fmt.Errorf("warm-up learn of instance %d (%s) failed", i, sh.name)
		}
	}
	return insts, nil
}

// setups runs a workload's complete set-up five times (once under -quick),
// reports setup_s as the median, and keeps the first result.
func (r *run) setups(setup func(parent int, first bool) error) error {
	reps := 5
	if r.cfg.quick {
		reps = 1
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		sp := r.tr.begin(r.root, "setup", i)
		var err error
		var wall float64
		f := r.host.segment(func() {
			start := now()
			err = setup(sp, i == 0)
			wall = since(start).Seconds()
		})
		secs = append(secs, wall*f)
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.set("setup_s", summarize("s", secs))
	return nil
}

// learnSample is one timed learn.
type learnSample struct {
	wall, cpu float64    // seconds
	tasks     [3]float64 // the engine's ganesh, consensus, modules timers
	stats     comm.Stats
	out       *core.Output
	reg       []series // traced learns only
}

// learnOnce runs one timed learn of the instance in the given shape and
// checks its network against the first one the instance produced. ok is
// false when the learn failed; the failure is already counted.
func (r *run) learnOnce(in *instance, sh shape, parent, rep int, traced bool) (s learnSample, ok bool) {
	opt := in.opt
	if sh.edit != nil {
		sh.edit(&opt)
	}
	if traced {
		opt.Events = true
		opt.Metrics = obs.NewRegistry()
	}
	var out *core.Output
	var err error
	runtime.GC()
	r.op()
	cpu := cpuSeconds()
	start := now()
	if sh.world == 0 {
		r.tr.do(parent, "core.Learn", rep, func() { out, err = core.Learn(in.data, opt) })
	} else {
		r.tr.do(parent, "core.LearnParallel", rep, func() { out, err = core.LearnParallel(sh.world, in.data, opt) })
	}
	wall := since(start).Seconds()
	cpu = cpuSeconds() - cpu
	if err != nil {
		r.fail("learn %d (%s, engine seed %d): %v", rep, sh.name, opt.Seed, err)
		return s, false
	}
	wire, err := networkBytes(out.Network)
	if err != nil {
		r.fail("learn %d (%s): %v", rep, sh.name, err)
		return s, false
	}
	if d := sha256.Sum256(wire); !in.seen {
		in.digest, in.seen = d, true
	} else if d != in.digest {
		r.fail("learn %d (%s): network differs from the instance's first (sha256 %x, want %x)", rep, sh.name, d[:6], in.digest[:6])
		return s, false
	}
	s = learnSample{
		wall: wall, cpu: cpu, out: out, stats: out.CommStats,
		tasks: [3]float64{out.Timers.Get(core.TaskGaneSH).Seconds(), out.Timers.Get(core.TaskConsensus).Seconds(), out.Timers.Get(core.TaskModules).Seconds()},
	}
	if traced {
		if s.reg, err = dumpRegistry(opt.Metrics); err != nil {
			r.fail("registry dump: %v", err)
			return s, false
		}
	}
	return s, true
}

// shapeSum adds up one shape's learns over a pass, as measured.
type shapeSum struct {
	wall, cpu float64 // seconds
	tasks     [3]float64
	stats     comm.Stats
	reg       map[string]series // traced passes: every registry series, summed
	consIters int               // traced passes: consensus power iterations
}

// passSums is one pass: every instance learned once in every shape. ok is
// false when a learn failed: the sums are then short.
type passSums struct {
	shapes map[string]*shapeSum
	// learn and wall are the seconds the pass spent on one instance, summed
	// over the counted shapes: on the nominal host, and as measured.
	learn, wall float64
	took        time.Duration
	ok          bool
}

// pass learns every instance once in every shape, a segment at a time.
func (r *run) pass(spec batchSpec, insts []*instance, phase string, rep int, traced bool) passSums {
	start := now()
	sp := r.tr.begin(r.root, phase, rep)
	p := passSums{shapes: map[string]*shapeSum{}, ok: true}
	for _, sh := range spec.shapes {
		p.shapes[sh.name] = &shapeSum{reg: map[string]series{}}
	}
	for i := 0; i < len(insts); { // the segment advances i
		var counted float64
		f := r.host.segment(func() {
			for segment := now(); i < len(insts) && since(segment) < segmentLength; i++ {
				counted += r.learnShapes(spec, insts[i], &p, sp, i, traced)
			}
		})
		p.learn += counted * f
		p.wall += counted
	}
	p.learn /= float64(len(insts))
	p.wall /= float64(len(insts))
	r.tr.end(sp)
	p.took = since(start)
	return p
}

// learnShapes learns one instance in every shape, adds the learns to the
// pass's sums, and returns the wall seconds of the counted shapes.
func (r *run) learnShapes(spec batchSpec, in *instance, p *passSums, parent, rep int, traced bool) (counted float64) {
	for _, sh := range spec.shapes {
		s, good := r.learnOnce(in, sh, parent, rep, traced)
		if !good {
			p.ok = false
			continue
		}
		sum := p.shapes[sh.name]
		sum.wall += s.wall
		sum.cpu += s.cpu
		for t := range sum.tasks {
			sum.tasks[t] += s.tasks[t]
		}
		sum.stats.Sends += s.stats.Sends
		sum.stats.Elems += s.stats.Elems
		sum.stats.Collectives += s.stats.Collectives
		addSeries(sum.reg, s.reg)
		sum.consIters += consensusIters(s.out.Events)
		if sh.counted {
			counted += s.wall
		}
		if r.cfg.trace && !traced && sh.name == "seq" {
			in.out, in.wall = s.out, s.wall
		}
	}
	return counted
}

func (r *run) runBatch(spec batchSpec) error {
	var insts []*instance
	err := r.setups(func(parent int, first bool) error {
		got, err := r.setupBatch(spec, parent)
		if first {
			insts = got
		}
		return err
	})
	if err != nil {
		return err
	}

	// A workload with one shape needs two passes for every network to have
	// been produced twice; with several shapes they check each other. A
	// traced run makes one plain pass and checks in its traced pass.
	atLeast := 1
	if len(spec.shapes) == 1 && !r.cfg.trace {
		atLeast = 2
	}
	// Then whole passes while another one fits in -seconds.
	deadline := now().Add(r.budget())
	var passes []passSums
	for p := 0; ; p++ {
		if p >= atLeast && (r.cfg.quick || r.cfg.trace || now().Add(passes[len(passes)-1].took).After(deadline)) {
			break
		}
		sums := r.pass(spec, insts, "pass", p, false)
		if !sums.ok && len(passes) == 0 {
			return fmt.Errorf("the first pass did not complete")
		}
		if sums.ok {
			passes = append(passes, sums)
		}
	}
	var learn, wall, speedup []float64
	for _, p := range passes {
		learn, wall = append(learn, p.learn), append(wall, p.wall)
		if gather := p.shapes["gather"]; gather != nil {
			speedup = append(speedup, p.shapes["seq"].wall/gather.wall)
		}
	}
	r.set("learn_s", summarize("s", learn))
	r.set("learn_wall_s", summarize("s", wall))
	if len(speedup) > 0 {
		r.set("speedup_2", summarize("ratio", speedup))
	}
	if r.cfg.trace {
		r.batchLayers(spec, insts, passes[0])
	}
	return nil
}

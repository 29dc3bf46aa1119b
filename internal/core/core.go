// Package core assembles the full Lemon-Tree pipeline of the paper into one
// engine: (1) an ensemble of GaneSH co-clustering runs, (2) sequential
// consensus clustering of the sampled variable partitions into modules, and
// (3) module learning — regression-tree ensembles, parent-split assignment,
// and regulator scoring. The engine is written against a message-passing
// world and produces identical networks for every rank count (the paper's
// §4.2 guarantee); a sequential run is that engine on a one-rank world
// (DESIGN §20). It reports per-task timing matching the paper's breakdown
// (Fig. 5) and, on a one-rank world, optional work recording for the scaling
// model.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"parsimone/internal/comm"
	"parsimone/internal/consensus"
	"parsimone/internal/dataset"
	"parsimone/internal/ganesh"
	"parsimone/internal/module"
	"parsimone/internal/obs"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/trace"
)

// Task names for the timing breakdown, matching the paper's decomposition.
const (
	TaskGaneSH    = "ganesh"
	TaskConsensus = "consensus"
	TaskModules   = "modules"
)

// Options configures a learning run. Use DefaultOptions as the base.
type Options struct {
	// Prior is the normal-gamma score prior.
	Prior score.Prior
	// Seed drives all randomness; identical seeds give identical
	// networks across rank and worker counts.
	Seed uint64
	// GaneshRuns is G, the number of independent co-clustering runs
	// sampled into the consensus ensemble.
	GaneshRuns int
	// Ganesh configures each run (U update steps).
	Ganesh ganesh.Params
	// CoOccurrenceThreshold zeroes co-occurrence entries below it
	// (§2.2.2).
	CoOccurrenceThreshold float64
	// Consensus is the spectral consensus clustering's Params, which have
	// no field (DESIGN §21); it stays for callers that hand it on to
	// consensus.Cluster.
	Consensus consensus.Params
	// Module configures tree learning and split assignment.
	Module module.Params
	// RecordWork enables work recording; the recorded workload drives the
	// strong-scaling time model. Accepted on a one-rank world only: with
	// more ranks each would see only its own block's steps.
	RecordWork bool
	// Workers is W, the number of intra-rank worker goroutines each rank
	// uses to evaluate its block of score computations — the thread level
	// of hybrid process×thread parallelism (internal/pool). 0 or 1 means
	// serial.
	// The learned network is bit-identical for every (p, Workers)
	// combination (DESIGN.md §6). Every task of a rank runs at this width:
	// it is part of the rank's run context, not of any task's Params
	// (DESIGN §21).
	Workers int
	// CheckpointDir, when set, persists each task's output there (as the
	// paper's pipeline writes intermediate files between tasks, §5.3) plus
	// a per-module progress manifest inside module learning, and resumes
	// from whatever checkpoints exist. Because each task — and each module
	// within task 3 — draws from its own numbered PRNG substream, a
	// resumed run learns exactly the network an uninterrupted run would.
	// Only rank 0 writes, as in the paper, through one background writer
	// per run; every file is durable before the run returns.
	CheckpointDir string
	// Deprecated: ignored; checkpoints are always binary. Deleted with its
	// last setter, benchmark/layers.go (ROADMAP 2(d)).
	BinaryCheckpoints bool
	// MaxRestarts is how many times the supervised driver (LearnParallel,
	// and Learn, which is LearnParallel on one rank), including under the job
	// runner, restarts the world after a rank crashed before giving up,
	// resuming from the newest checkpoints. 0 disables recovery.
	MaxRestarts int
	// Inject, when non-nil, injects a deterministic failure into the run —
	// the test- and benchmark-facing face of the fault-tolerance layer. A
	// spec addressed to a rank the world does not have is rejected: it
	// could never fire.
	Inject *FaultSpec
	// Events enables structured run-event recording (internal/obs). Each
	// rank records into its own recorder; the streams are gathered to rank
	// 0, merged deterministically, and returned in Output.Events. Recording
	// is result-invisible: the learned network is bit-identical with and
	// without it.
	Events bool
	// Metrics, when non-nil, receives counters, gauges, and histograms
	// from every layer of the run (comm traffic, pool costs, split steps,
	// imbalance). The registry is concurrency-safe and shared by all ranks
	// of an in-process world. Like Events, result-invisible.
	Metrics *obs.Registry
	// Ctx, when non-nil, threads cooperative cancellation and deadline
	// propagation through the run: every rank polls the context at its
	// deterministic iteration boundaries (GaneSH update steps, consensus
	// peeling rounds, module-unit edges, task boundaries — DESIGN §13).
	// Checks never consume PRNG draws or reorder collectives, so an
	// unfired context is result-invisible; when it fires, the run drains
	// to its durable checkpoints and the driver returns a *CancelledError
	// wrapping ErrCancelled (context cancelled) or ErrDeadline (deadline
	// exceeded). A nil Ctx never cancels.
	Ctx context.Context
}

// FaultSpec describes a deterministic failure to inject. Comm faults
// address communication operations by (rank, op) — see comm.Fault — and are
// honored by LearnParallel, which owns the world. Task, when non-empty,
// crashes rank Rank at a pipeline failpoint: TaskGaneSH or TaskConsensus
// (immediately after that task's checkpoint is saved) or "module:<k>" (as
// module k's learning starts). The supervised driver clears the spec after
// the first attempt, so an injected failure fires exactly once.
type FaultSpec struct {
	Comm []comm.Fault
	Task string
	Rank int
	// CancelAt, when > 0, fires the run's cancellation signal when rank
	// Rank reaches its CancelAt-th cancellation check (1-based) — the
	// cancel analog of comm.Fault's op addressing, used by the
	// cancel-at-every-failpoint matrix. Checks happen at deterministic
	// program points, so (Rank, CancelAt) is a reproducible address.
	// Mutually exclusive with Task.
	CancelAt int64
}

// parseFailpoint splits a FaultSpec.Task into a boundary name ("" when
// unset) and a module index (-1 for task boundaries).
func parseFailpoint(s string) (string, int, error) {
	switch s {
	case "", TaskGaneSH, TaskConsensus:
		return s, -1, nil
	}
	if rest, ok := strings.CutPrefix(s, "module:"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil || k < 0 {
			return "", -1, fmt.Errorf("core: bad module failpoint %q", s)
		}
		return "module", k, nil
	}
	return "", -1, fmt.Errorf("core: unknown failpoint %q (want %q, %q, or \"module:<k>\")",
		s, TaskGaneSH, TaskConsensus)
}

// DefaultOptions mirrors the paper's minimum-run-time experiment
// configuration (§5.1): a single GaneSH run with one update step and one
// regression tree per module, all variables as candidate parents.
func DefaultOptions() Options {
	return Options{
		Prior:                 score.DefaultPrior(),
		Seed:                  1,
		GaneshRuns:            1,
		Ganesh:                ganesh.Params{Updates: 1},
		CoOccurrenceThreshold: 0.25,
		Consensus:             consensus.Params{},
		Module: module.Params{
			Tree: ganesh.ObsParams{Updates: 2, Burnin: 1},
		},
	}
}

// Output is the result of a learning run.
type Output struct {
	// Network is the learned module network.
	Network *result.Network
	// Modules carries the full per-module artifacts (trees, parent
	// scores).
	Modules []*module.Module
	// Splits is the raw split assignment behind the parent scores; CPDs
	// are assembled from it (see NewPredictor).
	Splits splits.Result
	// Timers holds rank 0's per-task wall-clock breakdown.
	Timers *trace.Timers
	// Workload is the recorded parallelizable work (nil unless
	// Options.RecordWork was set).
	Workload *trace.Workload
	// CommStats is the message traffic of every rank of the world that
	// finished the run, summed. A one-rank world enters collectives but
	// sends nothing.
	CommStats comm.Stats
	// Recovery lists the supervised restarts the run survived (empty for
	// an uninterrupted run).
	Recovery []trace.RecoveryEvent
	// CancelChecks counts the cancellation checks rank 0 polled — the
	// probe a cancel matrix uses to enumerate every cancellation point of
	// a clean run. A pure function of (options, p): GaneSH polls once per
	// update step of each run rank 0's group executes, and every other
	// check sits at a replicated program point, so it is the same for
	// every p when G = 1.
	CancelChecks int64
	// Events is the structured event stream of every rank, merged
	// (Options.Events), led by one event per supervised restart.
	Events []obs.Event
}

// validate checks the options for a world of p ranks over n variables.
func (o Options) validate(p, n int) error {
	if err := o.Prior.Validate(); err != nil {
		return err
	}
	if err := o.Module.Splits.Validate(n); err != nil {
		return fmt.Errorf("core: invalid split params: %w", err)
	}
	if o.GaneshRuns < 1 {
		return fmt.Errorf("core: GaneshRuns %d must be ≥ 1", o.GaneshRuns)
	}
	if o.Ganesh.Updates < 0 {
		return fmt.Errorf("core: Ganesh.Updates %d must be ≥ 0 (0 means 1)", o.Ganesh.Updates)
	}
	tree := o.Module.Tree
	if tree.Updates < 0 {
		return fmt.Errorf("core: Module.Tree.Updates %d must be ≥ 0 (0 means 1)", tree.Updates)
	}
	if tree.Burnin < 0 {
		return fmt.Errorf("core: Module.Tree.Burnin %d must be ≥ 0", tree.Burnin)
	}
	// A module's trees are the sampler states after its burn-in, so a
	// burn-in of every update step would learn modules without trees.
	if tree.Burnin >= max(1, tree.Updates) {
		return fmt.Errorf("core: Module.Tree.Burnin %d must be below Module.Tree.Updates %d (0 means 1), or no tree is sampled", tree.Burnin, tree.Updates)
	}
	if o.CoOccurrenceThreshold < 0 || o.CoOccurrenceThreshold > 1 {
		return fmt.Errorf("core: co-occurrence threshold %v outside [0,1]", o.CoOccurrenceThreshold)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers %d must be ≥ 0", o.Workers)
	}
	if o.MaxRestarts < 0 {
		return fmt.Errorf("core: MaxRestarts %d must be ≥ 0", o.MaxRestarts)
	}
	if o.RecordWork && p > 1 {
		return fmt.Errorf("core: work recording needs a one-rank world: each of %d ranks would see only its own block's steps", p)
	}
	if o.Inject != nil {
		if _, _, err := parseFailpoint(o.Inject.Task); err != nil {
			return err
		}
		// A fault addressed to a rank the world does not have never fires,
		// and the run would report a success nothing was injected into.
		if o.Inject.Rank < 0 || o.Inject.Rank >= p {
			return fmt.Errorf("core: Inject.Rank %d outside the world's ranks [0, %d)", o.Inject.Rank, p)
		}
		for _, f := range o.Inject.Comm {
			if f.Rank < 0 || f.Rank >= p {
				return fmt.Errorf("core: Inject.Comm fault %v outside the world's ranks [0, %d)", f, p)
			}
		}
		if o.Inject.CancelAt < 0 {
			return fmt.Errorf("core: Inject.CancelAt %d must be ≥ 0", o.Inject.CancelAt)
		}
		if o.Inject.CancelAt > 0 && o.Inject.Task != "" {
			return fmt.Errorf("core: Inject.CancelAt and Inject.Task are mutually exclusive")
		}
	}
	return nil
}

// Check is what LearnParallel(p, d, opt) checks before it starts a world:
// options that fit p ranks and data inside the envelope. It quantizes nothing,
// so a caller that queues runs (internal/serve) can refuse at the door what
// the engine would refuse later.
func Check(p int, d *dataset.Data, opt Options) error {
	_, err := check(p, d, opt)
	return err
}

// check is Check returning the training transform it fitted on the way.
func check(p int, d *dataset.Data, opt Options) (*Transform, error) {
	if p < 1 {
		return nil, fmt.Errorf("core: a world of %d ranks cannot exist (need p ≥ 1)", p)
	}
	if err := opt.validate(p, d.N); err != nil {
		return nil, err
	}
	return fit(d)
}

// failpointFn returns the task-boundary crash hook of rank: a no-op unless
// opt.Inject targets a failpoint on it.
func failpointFn(opt Options, rank int) func(task string, mi int) {
	if opt.Inject == nil || opt.Inject.Task == "" || opt.Inject.Rank != rank {
		return func(string, int) {}
	}
	task, k, _ := parseFailpoint(opt.Inject.Task) // validate rejected malformed specs
	return func(at string, mi int) {
		if at == task && mi == k {
			panic(fmt.Errorf("%w: rank %d at failpoint %q", comm.ErrInjected, rank, opt.Inject.Task))
		}
	}
}

// snapshotOf converts a final variable → cluster assignment into the
// partition snapshot consumed by the consensus task.
func snapshotOf(assign []int) [][]int {
	byCluster := map[int][]int{}
	maxC := -1
	for x, c := range assign {
		byCluster[c] = append(byCluster[c], x)
		if c > maxC {
			maxC = c
		}
	}
	snap := make([][]int, 0, len(byCluster))
	for c := 0; c <= maxC; c++ {
		if vars, ok := byCluster[c]; ok {
			snap = append(snap, vars)
		}
	}
	return snap
}

// run is the pipeline on rc's rank over the prepared data q and the learn's
// read-only kernel, tabled at N·M counts, which no block exceeds. The rank's
// cancellation signal is polled here at the task boundaries and module-unit
// edges and, by the tasks handed rc, inside them. Rank 0 persists the
// checkpoints, through the run's one checkpoint writer, and emits the
// task-level events, which keeps the merged stream single-sourced.
// Checkpoints are stamped with key, and only checkpoints stamped with it are
// resumed.
func run(rc rank.Context, d *dataset.Data, q *score.QData, kern *score.Kernel, key digest, opt Options) (out *Output, err error) {
	c, hooks, cancel := rc.Comm, rc.Hooks, rc.Cancel
	master := prng.New(opt.Seed)
	failpoint := failpointFn(opt, c.Rank())
	timers := trace.NewTimers()
	root := c.Rank() == 0
	stamp := ckptStamp{Key: key}

	// Per-rank data (pool costs, comm stats) is emitted elsewhere: by the
	// tasks, through rc.
	emit := func(ev obs.Event) {
		if root {
			hooks.Emit(ev)
		}
	}
	taskEvent := func(typ, name string) {
		ev := obs.Event{Type: typ, Task: &obs.TaskInfo{Name: name}}
		if typ == obs.TypeTaskEnd {
			ev.DurNS = int64(timers.Get(name))
		}
		emit(ev)
	}
	checkpointEvent := func(file string) {
		emit(obs.Event{Type: obs.TypeCheckpoint, Checkpoint: &obs.CheckpointInfo{File: file}})
	}
	emit(obs.Event{Type: obs.TypeRunStart, Run: &obs.RunInfo{
		Ranks: c.Size(), Workers: opt.Workers, Seed: opt.Seed, N: q.N, M: q.M,
	}})
	// Task 1: G GaneSH co-clustering runs, each on its own numbered
	// substream, so the sampled ensemble is independent of the execution
	// layout (all ranks per run, or disjoint rank groups per §3.2.1).
	var ensembles [][][]int
	var resumedModules [][]int
	haveModules := false
	cancel.Check()
	var ckpt *checkpointWriter
	if opt.CheckpointDir != "" {
		if root {
			if ckpt, err = startCheckpointWriter(opt.CheckpointDir); err != nil {
				return nil, err
			}
			// Every queued file is durable before the rank returns or
			// unwinds, so the world ends only after its checkpoints do.
			defer func() {
				if cerr := ckpt.closeCheckpoints(); cerr != nil && err == nil {
					out, err = nil, cerr
				}
			}()
			// Resume entry: clear any orphaned temp files an interrupted
			// atomic rename left behind before anything is queued.
			if err = sweepTempCheckpoints(opt.CheckpointDir); err != nil {
				return nil, err
			}
		}
		if resumedModules, haveModules, err = loadModules(opt.CheckpointDir, key, q.N); err != nil {
			return nil, err
		}
		if !haveModules {
			if ensembles, err = loadEnsembles(opt.CheckpointDir, key, opt.GaneshRuns, q.N); err != nil {
				return nil, err
			}
		}
	}
	if !haveModules && ensembles == nil {
		taskEvent(obs.TypeTaskStart, TaskGaneSH)
		timers.Time(TaskGaneSH, func() {
			ensembles = sampleEnsembles(rc, q, kern, opt, master)
		})
		if ckpt != nil {
			ck := ensemblesCheckpoint{ckptStamp: stamp, Ensembles: ensembles}
			if err := ckpt.queueCheckpoint(ckptEnsembles, &ck); err != nil {
				return nil, err
			}
			checkpointEvent(ckptEnsembles)
		}
		taskEvent(obs.TypeTaskEnd, TaskGaneSH)
		failpoint(TaskGaneSH, -1)
	} else {
		taskEvent(obs.TypeTaskResume, TaskGaneSH)
	}
	// Task-boundary cancellation point: the GaneSH checkpoint (when
	// enabled) is queued by now, and the writer's close makes it durable
	// before the world ends, so a cancel here resumes from it.
	cancel.Check()

	// Task 2: consensus clustering, sequential as in the paper (<0.04 %
	// of run time), replicated on every rank.
	var moduleVars [][]int
	if haveModules {
		moduleVars = resumedModules
		taskEvent(obs.TypeTaskResume, TaskConsensus)
	} else {
		taskEvent(obs.TypeTaskStart, TaskConsensus)
		var consErr error
		timers.Time(TaskConsensus, func() {
			s := ganesh.CoOccurrenceCSR(q.N, ensembles, opt.CoOccurrenceThreshold)
			moduleVars, consErr = consensus.ClusterWithComm(rc, s)
		})
		if consErr != nil {
			return nil, consErr
		}
		if ckpt != nil {
			ck := modulesCheckpoint{ckptStamp: stamp, ModuleVars: moduleVars}
			if err := ckpt.queueCheckpoint(ckptModules, &ck); err != nil {
				return nil, err
			}
			checkpointEvent(ckptModules)
		}
		taskEvent(obs.TypeTaskEnd, TaskConsensus)
		failpoint(TaskConsensus, -1)
	}
	cancel.Check()

	// Task 3: module learning on its own substream, one numbered
	// sub-substream per module, checkpointed module-by-module so a crash
	// here loses at most one module's work.
	prog := &module.Progress{
		OnStart: func(mi int) {
			emit(obs.Event{Type: obs.TypeModuleStart, Module: &obs.ModuleInfo{
				Index: mi, Vars: len(moduleVars[mi]),
			}})
			failpoint("module", mi)
			// Module-unit cancellation edge: everything before module mi
			// is queued for the checkpoint writer (when enabled), whose
			// close makes it durable before the world ends, and unit mi
			// has not drawn from its substream yet, so a cancel here loses
			// no completed work and a resume recomputes mi bit-identically.
			cancel.Check()
		},
	}
	var saveUnit func(u *module.Unit) error
	if opt.CheckpointDir != "" {
		units, err := loadProgress(opt.CheckpointDir, key, moduleVars)
		if err != nil {
			return nil, err
		}
		if units == nil {
			units = map[int]*module.Unit{}
		}
		prog.Completed = units
		if ckpt != nil {
			saveUnit = func(u *module.Unit) error {
				units[u.Module] = u
				return ckpt.queueProgress(stamp, units)
			}
		}
	}
	prog.OnUnit = func(u *module.Unit) error {
		if saveUnit != nil {
			if err := saveUnit(u); err != nil {
				return err
			}
			checkpointEvent(ckptProgress)
		}
		emit(obs.Event{Type: obs.TypeModuleDone, Module: &obs.ModuleInfo{
			Index: u.Module, Vars: len(u.Vars), Splits: len(u.Weighted) + len(u.Uniform),
		}})
		return nil
	}
	var modRes *module.Result
	var modErr error
	taskEvent(obs.TypeTaskStart, TaskModules)
	timers.Time(TaskModules, func() {
		g := master.Substream(uint64(opt.GaneshRuns + 1))
		modRes, modErr = module.LearnWithComm(rc, q, kern, moduleVars, opt.Module, g, prog)
	})
	if modErr != nil {
		return nil, modErr
	}
	taskEvent(obs.TypeTaskEnd, TaskModules)

	// Assemble the network artifact.
	net := &result.Network{N: d.N, M: d.M, Names: append([]string(nil), d.Names...)}
	for mi, mod := range modRes.Modules {
		rm := result.Module{ID: mi, Variables: append([]int(nil), mod.Vars...)}
		for _, v := range rm.Variables {
			rm.VariableNames = append(rm.VariableNames, d.Names[v])
		}
		for _, ps := range mod.ParentsWeighted {
			rm.Parents = append(rm.Parents, result.Parent{
				Index: ps.Parent, Name: d.Names[ps.Parent], Score: ps.Score, Count: ps.Count,
			})
		}
		for _, ps := range mod.ParentsUniform {
			rm.ParentsUniform = append(rm.ParentsUniform, result.Parent{
				Index: ps.Parent, Name: d.Names[ps.Parent], Score: ps.Score, Count: ps.Count,
			})
		}
		net.Modules = append(net.Modules, rm)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	emit(obs.Event{Type: obs.TypeRunEnd, Run: &obs.RunInfo{
		Ranks: c.Size(), Workers: opt.Workers, Seed: opt.Seed, N: q.N, M: q.M,
		Modules: len(net.Modules),
	}})
	return &Output{Network: net, Modules: modRes.Modules, Splits: modRes.Splits, Timers: timers}, nil
}

// Learn runs the full pipeline on a one-rank world: LearnParallel(1, d, opt),
// with its supervision, fault injection and cancellation (DESIGN §20).
func Learn(d *dataset.Data, opt Options) (*Output, error) { return LearnParallel(1, d, opt) }

// learn builds the run context of c's rank from the options — the one place
// that says how a rank executes (DESIGN §21) — runs the pipeline on it over
// the prepared data and the learn's kernel, and collects the rank's side of
// the Output.
func learn(c *comm.Comm, d *dataset.Data, q *score.QData, kern *score.Kernel, key digest, opt Options) (*Output, error) {
	var rec *obs.Recorder
	if opt.Events {
		rec = obs.NewRecorder(c.Rank())
	}
	var wl *trace.Workload
	if opt.RecordWork {
		wl = &trace.Workload{}
	}
	hooks := obs.NewHooks(rec, opt.Metrics, wl)
	rc := rank.Context{Comm: c, Workers: opt.Workers, Hooks: hooks, Cancel: newCanceler(opt, c.Rank())}
	out, err := run(rc, d, q, kern, key, opt)
	if err != nil {
		return nil, err
	}
	out.Workload = wl
	out.CommStats = c.Stats()
	out.CancelChecks = rc.Cancel.Checks()
	// Snapshot per-rank traffic before the event gather adds its own. A
	// one-rank world has sent nothing and reports nothing.
	if c.Size() > 1 {
		hooks.CommStats(c.Rank(), out.CommStats)
	}
	if rec != nil {
		if perRank := comm.AllGather(c, rec.Events()); c.Rank() == 0 {
			out.Events = obs.Merge(perRank)
		}
	}
	return out, nil
}

// sampleEnsembles executes the G GaneSH runs on c's ranks and returns the
// variable-partition snapshot of every run, indexed by run. The ranks form
// min(p, G) contiguous groups of near-equal size, each handling the runs
// r ≡ group (mod groups) on its own subworld, followed by an exchange of the
// sampled partitions (§3.2.1: "G runs of GaneSH can be executed in parallel
// on p/G processors each, without any communication"). Every run draws from
// its own numbered substream, so the grouping never changes a partition; a
// one-group world splits nothing and exchanges nothing.
func sampleEnsembles(rc rank.Context, q *score.QData, kern *score.Kernel, opt Options, master *prng.MRG3) [][][]int {
	c := rc.Comm
	groups := min(c.Size(), opt.GaneshRuns)
	color := c.Rank() * groups / c.Size()
	sub := rc
	if groups > 1 {
		sub.Comm = comm.Split(c, color)
	}
	type runSnap struct {
		R    int
		Snap [][]int
	}
	ensembles := make([][][]int, opt.GaneshRuns)
	var local []runSnap
	for r := color; r < opt.GaneshRuns; r += groups {
		g := master.Substream(uint64(r + 1))
		ensembles[r] = snapshotOf(ganesh.RunWithComm(sub, q, kern, opt.Ganesh, g).VarAssignment())
		// Only the group's first rank contributes to the exchange, so
		// each run appears exactly once.
		if groups > 1 && sub.Comm.Rank() == 0 {
			local = append(local, runSnap{R: r, Snap: ensembles[r]})
		}
	}
	if groups > 1 {
		for _, rs := range comm.AllGatherv(c, local) {
			ensembles[rs.R] = rs.Snap
		}
	}
	return ensembles
}

// LearnParallel spins up p ranks, runs the pipeline on them, and returns
// rank 0's output with the total message traffic of all ranks. It is
// Supervise with nobody waiting between worlds.
func LearnParallel(p int, d *dataset.Data, opt Options) (*Output, error) {
	return Supervise(p, d, opt, nil)
}

// Supervise is the one supervised driver of the fault-tolerance layer.
// Options and data are checked, the data quantized and the scoring kernel
// built once for every rank of every world to read, and the run key of a
// checkpointing run computed, before any world starts. When a rank crashes
// — an organic panic or a fault injected via Options.Inject — the whole
// world is torn down MPI-style, the failure is recorded as a recovery event,
// and — up to Options.MaxRestarts times — a fresh world is started that
// resumes from the newest checkpoints in Options.CheckpointDir (or from
// scratch without checkpointing).
// Determinism (DESIGN §6) makes the recovered network bit-identical to an
// uninterrupted run's. An error a rank returned (a stale checkpoint
// directory, a consensus that did not converge) would be returned again by
// every world, so it ends the run on the first attempt.
//
// between, when non-nil, is the seam of a caller that queues runs
// (internal/jobs): after a failure the run will restart from, and before the
// next world starts, it is told the recovery event and may wait. If
// Options.Ctx fired meanwhile, no further world is started.
//
// Cancellation (Options.Ctx) is not a failure: a cancelled world is never
// restarted, no restart budget is consumed, and the driver returns a
// *CancelledError naming the durable checkpoints the run drained to.
func Supervise(p int, d *dataset.Data, opt Options, between func(trace.RecoveryEvent)) (*Output, error) {
	t, err := check(p, d, opt)
	if err != nil {
		return nil, err
	}
	q := t.prepare(d)
	kern := score.NewKernel(opt.Prior, q.N*q.M)
	// The key checkpoints are stamped with; a run that does not checkpoint
	// never hashes its inputs.
	var key digest
	if opt.CheckpointDir != "" {
		key = runDigest(d, opt)
	}
	attempt := opt
	var recovery []trace.RecoveryEvent
	for {
		outs, stats, err := runWorld(p, d, q, kern, key, attempt)
		if err != nil {
			if isCancel(err) {
				return nil, cancelledError(err, opt)
			}
			// Only a rank that crashed (RankError.Stack) is worth a restart.
			var re *comm.RankError
			if len(recovery) >= opt.MaxRestarts || !errors.As(err, &re) || re.Stack == "" {
				return nil, err
			}
			ev := trace.RecoveryEvent{
				Attempt:  len(recovery) + 1,
				Rank:     re.Rank,
				Panicked: true,
				Err:      re.Err.Error(),
			}
			recovery = append(recovery, ev)
			// Injected faults fire once; an organic failure that repeats
			// every attempt exhausts MaxRestarts instead of looping.
			attempt.Inject = nil
			if between != nil {
				between(ev)
				if opt.Ctx != nil && opt.Ctx.Err() != nil {
					return nil, cancelledError(cancelReason(opt.Ctx)(), opt)
				}
			}
			continue
		}
		total := comm.Stats{}
		for _, s := range stats {
			total.Add(s)
		}
		out := outs[0]
		out.CommStats = total
		out.Recovery = recovery
		// Failures happened before the surviving attempt's events, so
		// recovery events lead the merged stream.
		if len(recovery) > 0 && out.Events != nil {
			evs := make([]obs.Event, 0, len(recovery)+len(out.Events))
			for _, re := range recovery {
				r := re
				evs = append(evs, obs.Event{Type: obs.TypeRecovery, Recovery: &r})
			}
			evs = append(evs, out.Events...)
			for i := range evs {
				evs[i].Seq = i
			}
			out.Events = evs
		}
		return out, nil
	}
}

// runWorld is one attempt of Supervise: a world of p ranks learns over the
// prepared data q and the learn's kernel, with opt's comm faults injected, and
// every rank's output and message traffic is returned. When Options.Ctx
// fires, the first rank to poll it panics with an ErrCancelled- or
// ErrDeadline-wrapped error, which tears the world down through the usual
// abort path.
func runWorld(p int, d *dataset.Data, q *score.QData, kern *score.Kernel, key digest, opt Options) ([]*Output, []comm.Stats, error) {
	outs := make([]*Output, p)
	var faults []comm.Fault
	if opt.Inject != nil {
		faults = opt.Inject.Comm
	}
	stats, err := comm.RunWithFaults(p, faults, func(c *comm.Comm) error {
		out, err := learn(c, d, q, kern, key, opt)
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		return nil
	})
	return outs, stats, err
}

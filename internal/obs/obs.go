// Package obs is the run-level observability layer: a structured,
// machine-readable record of what a learning run did — task and phase
// boundaries, checkpoint writes, recovery events, per-rank communication
// traffic, intra-rank worker-pool cost summaries, and split-phase load
// imbalance — plus a lightweight metrics registry dumped as JSON or
// Prometheus text format.
//
// The paper's production setting is multi-day runs on thousands of cores
// (§5.2.2 estimates 13.5 and 49 days for the full compendia); post-hoc log
// archaeology does not work at that scale. The obs layer gives every run an
// exportable event stream that per-phase profiling (the next optimization
// round's input) and operational tooling can consume.
//
// # Determinism contract
//
// Observability is result-invisible and self-deterministic:
//
//   - Attaching sinks never changes the learned network. Recorders only
//     observe; they never consume PRNG state or alter control flow.
//   - The event stream itself is deterministic modulo wall-clock fields
//     (Event.TNS, Event.DurNS): two same-seed runs of the same
//     configuration produce byte-identical logs after Canonical strips the
//     clock fields, so a test — or an operator — can diff two runs' logs.
//     The one exception is the dynamic split distribution, whose
//     work-to-rank assignment is scheduling-dependent by design; its
//     per-rank cost events are therefore not emitted (see splits'
//     learnRanks).
//
// Each rank records into its own Recorder (a Comm
// must only be used from its own goroutine, and the same holds here); the
// per-rank streams are gathered to rank 0 at the end of the run and merged
// deterministically by Merge — the rank-0-serialized sink, mirroring the
// paper's "rank 0 writes all files" I/O discipline (§5.3).
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"parsimone/internal/comm"
	"parsimone/internal/trace"
)

// Event types emitted by the engines. Every event carries exactly one
// payload field (checked by Validate).
const (
	TypeRunStart    = "run.start"         // payload Run
	TypeRunEnd      = "run.end"           // payload Run
	TypeTaskStart   = "task.start"        // payload Task
	TypeTaskEnd     = "task.end"          // payload Task
	TypeTaskResume  = "task.resume"       // payload Task (skipped via checkpoint)
	TypeModuleStart = "module.start"      // payload Module
	TypeModuleDone  = "module.done"       // payload Module
	TypeCheckpoint  = "checkpoint.write"  // payload Checkpoint
	TypeRecovery    = "recovery"          // payload Recovery
	TypeCommStats   = "comm.stats"        // payload Comm
	TypePoolCost    = "pool.cost"         // payload Pool
	TypeImbalance   = "imbalance"         // payload Imbalance
	TypeConsensus   = "consensus.extract" // payload Consensus

	// Job lifecycle events, emitted by the supervised job runtime
	// (internal/jobs). Rank is always 0: the runtime is a single
	// supervisor, not a rank of a world.
	TypeJobQueued       = "job.queued"       // payload Job
	TypeJobAdmitted     = "job.admitted"     // payload Job
	TypeJobRunning      = "job.running"      // payload Job
	TypeJobRetry        = "job.retry"        // payload Job
	TypeJobCheckpointed = "job.checkpointed" // payload Job
	TypeJobDone         = "job.done"         // payload Job
	TypeJobFailed       = "job.failed"       // payload Job
	TypeJobCancelled    = "job.cancelled"    // payload Job (deadline or drain; agrees with jobs_cancelled_total)
)

// RunInfo describes a whole run (run.start / run.end).
type RunInfo struct {
	// Ranks is p; Workers is W per rank.
	Ranks   int    `json:"ranks"`
	Workers int    `json:"workers,omitempty"`
	Seed    uint64 `json:"seed"`
	// N×M is the data shape.
	N int `json:"n"`
	M int `json:"m"`
	// Modules is the learned module count (run.end only).
	Modules int `json:"modules,omitempty"`
}

// TaskInfo names a pipeline task boundary.
type TaskInfo struct {
	Name string `json:"name"`
}

// ModuleInfo describes one module-learning unit boundary.
type ModuleInfo struct {
	Index int `json:"index"`
	// Vars is the module's member count; Splits the number of assigned
	// splits (module.done only).
	Vars   int `json:"vars,omitempty"`
	Splits int `json:"splits,omitempty"`
}

// CheckpointInfo records one checkpoint file write.
type CheckpointInfo struct {
	File string `json:"file"`
}

// PoolInfo is one intra-rank worker-pool cost summary: the per-worker cost
// counters of one phase evaluation on this rank (deterministic — the pool's
// chunk assignment is static).
type PoolInfo struct {
	Phase   string    `json:"phase"`
	Workers int       `json:"workers"`
	Cost    []float64 `json:"cost"`
	Items   []int64   `json:"items,omitempty"`
}

// ImbalanceInfo is the §5.3.1 measure (max−avg)/avg of a phase's load,
// across intra-rank workers or across ranks.
type ImbalanceInfo struct {
	Phase string `json:"phase"`
	// Across is "workers" or "ranks".
	Across string  `json:"across"`
	Value  float64 `json:"value"`
	// PerUnit is the underlying load vector (one entry per worker or rank).
	PerUnit []float64 `json:"per_unit,omitempty"`
}

// ConsensusInfo records one spectral peeling step of the consensus task.
type ConsensusInfo struct {
	// Remaining is the submatrix size the eigenpair was computed on.
	Remaining  int     `json:"remaining"`
	Eigenvalue float64 `json:"eigenvalue"`
	Iters      int     `json:"iters"`
	Converged  bool    `json:"converged"`
	// Residual is ‖Sx − λx‖ of the eigenpair on the round that did not
	// converge — small when the vector settled while λ still drifted
	// within Tol, large when it had not settled. Converged rounds omit it.
	Residual float64 `json:"residual,omitempty"`
	// Extracted is the extracted cluster size (0 when peeling stopped).
	Extracted int `json:"extracted,omitempty"`
}

// JobInfo describes one lifecycle transition of a supervised job
// (internal/jobs). The payload of every job.* event type.
type JobInfo struct {
	// ID is the runner-assigned job id (dense, in submission order);
	// Name the caller's label.
	ID   int    `json:"id"`
	Name string `json:"name,omitempty"`
	// Ranks×Workers is the p×W capacity the job holds while admitted.
	Ranks   int `json:"ranks,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Restarts counts the run's restarts so far (job.retry, job.done,
	// job.failed).
	Restarts int `json:"restarts,omitempty"`
	// Checkpoint is the job's checkpoint directory (job.checkpointed: the
	// durable resume state a drained or failed job left behind).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Err describes the failure (job.failed, job.retry).
	Err string `json:"err,omitempty"`
}

// Event is one structured run event. Seq is dense and ascending within a
// stream; Rank is the emitting rank. TNS (wall-clock nanoseconds) and DurNS
// (a measured duration) are the only nondeterministic fields — Canonical
// strips them for log diffing. Exactly one payload pointer is non-nil.
type Event struct {
	Seq  int    `json:"seq"`
	Rank int    `json:"rank"`
	Type string `json:"type"`

	TNS   int64 `json:"t_ns,omitempty"`
	DurNS int64 `json:"dur_ns,omitempty"`

	Run        *RunInfo             `json:"run,omitempty"`
	Task       *TaskInfo            `json:"task,omitempty"`
	Module     *ModuleInfo          `json:"module,omitempty"`
	Checkpoint *CheckpointInfo      `json:"checkpoint,omitempty"`
	Recovery   *trace.RecoveryEvent `json:"recovery,omitempty"`
	Comm       *comm.Stats          `json:"comm,omitempty"`
	Pool       *PoolInfo            `json:"pool,omitempty"`
	Imbalance  *ImbalanceInfo       `json:"imbalance,omitempty"`
	Consensus  *ConsensusInfo       `json:"consensus,omitempty"`
	Job        *JobInfo             `json:"job,omitempty"`
}

// payload returns the event's single non-nil payload, or nil.
func (e *Event) payload() any {
	ptrs := []struct {
		v  any
		ok bool
	}{
		{e.Run, e.Run != nil}, {e.Task, e.Task != nil}, {e.Module, e.Module != nil},
		{e.Checkpoint, e.Checkpoint != nil}, {e.Recovery, e.Recovery != nil},
		{e.Comm, e.Comm != nil}, {e.Pool, e.Pool != nil}, {e.Imbalance, e.Imbalance != nil},
		{e.Consensus, e.Consensus != nil}, {e.Job, e.Job != nil},
	}
	var found any
	for _, p := range ptrs {
		if p.ok {
			if found != nil {
				return nil // more than one payload: invalid
			}
			found = p.v
		}
	}
	return found
}

// typePayload maps each event type to a checker for its required payload.
var typePayload = map[string]func(*Event) bool{
	TypeRunStart:    func(e *Event) bool { return e.Run != nil },
	TypeRunEnd:      func(e *Event) bool { return e.Run != nil },
	TypeTaskStart:   func(e *Event) bool { return e.Task != nil },
	TypeTaskEnd:     func(e *Event) bool { return e.Task != nil },
	TypeTaskResume:  func(e *Event) bool { return e.Task != nil },
	TypeModuleStart: func(e *Event) bool { return e.Module != nil },
	TypeModuleDone:  func(e *Event) bool { return e.Module != nil },
	TypeCheckpoint:  func(e *Event) bool { return e.Checkpoint != nil },
	TypeRecovery:    func(e *Event) bool { return e.Recovery != nil },
	TypeCommStats:   func(e *Event) bool { return e.Comm != nil },
	TypePoolCost:    func(e *Event) bool { return e.Pool != nil },
	TypeImbalance:   func(e *Event) bool { return e.Imbalance != nil },
	TypeConsensus:   func(e *Event) bool { return e.Consensus != nil },

	TypeJobQueued:       func(e *Event) bool { return e.Job != nil },
	TypeJobAdmitted:     func(e *Event) bool { return e.Job != nil },
	TypeJobRunning:      func(e *Event) bool { return e.Job != nil },
	TypeJobRetry:        func(e *Event) bool { return e.Job != nil },
	TypeJobCheckpointed: func(e *Event) bool { return e.Job != nil },
	TypeJobDone:         func(e *Event) bool { return e.Job != nil },
	TypeJobFailed:       func(e *Event) bool { return e.Job != nil },
	TypeJobCancelled:    func(e *Event) bool { return e.Job != nil },
}

// Validate checks an event stream against the schema: known types, the
// type's payload present (and no other), non-negative ranks, and a dense
// ascending Seq numbering.
func Validate(events []Event) error {
	for i := range events {
		e := &events[i]
		check, ok := typePayload[e.Type]
		if !ok {
			return fmt.Errorf("obs: event %d has unknown type %q", i, e.Type)
		}
		if !check(e) {
			return fmt.Errorf("obs: event %d (%s) is missing its %s payload", i, e.Type, e.Type)
		}
		if p := e.payload(); p == nil {
			return fmt.Errorf("obs: event %d (%s) carries multiple payloads", i, e.Type)
		}
		if e.Rank < 0 {
			return fmt.Errorf("obs: event %d has negative rank %d", i, e.Rank)
		}
		if e.Seq != i {
			return fmt.Errorf("obs: event %d has seq %d, want dense ascending numbering", i, e.Seq)
		}
	}
	return nil
}

// Recorder accumulates one rank's events. A nil *Recorder is a valid no-op
// sink, so call sites need no guards. Emit is safe for concurrent use, but
// the engines only emit from the rank's own goroutine (pool workers never
// emit), which is what keeps per-rank streams deterministic.
type Recorder struct {
	mu     sync.Mutex
	rank   int
	now    func() int64
	events []Event
}

// NewRecorder returns a recorder stamping events with the given rank.
func NewRecorder(rank int) *Recorder {
	return &Recorder{rank: rank, now: func() int64 { return time.Now().UnixNano() }}
}

// Emit appends one event, filling Seq, Rank, and the wall-clock stamp.
// The caller sets Type, the payload, and (optionally) DurNS.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Seq = len(r.events)
	ev.Rank = r.rank
	ev.TNS = r.now()
	r.events = append(r.events, ev)
}

// Events returns the recorded stream (a copy).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Merge interleaves per-rank event streams into one deterministic stream
// and renumbers Seq globally. Events are ordered by (per-rank seq, rank):
// ranks advance in lockstep through collectives, so equal local sequence
// numbers correspond to roughly the same program point, and the tiebreak by
// rank makes the order a pure function of the recorded streams — never of
// goroutine scheduling.
func Merge(perRank [][]Event) []Event {
	var all []Event
	for _, evs := range perRank {
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].Seq != all[b].Seq {
			return all[a].Seq < all[b].Seq
		}
		return all[a].Rank < all[b].Rank
	})
	for i := range all {
		all[i].Seq = i
	}
	return all
}

// Canonical returns a copy of the stream with the wall-clock fields (TNS,
// DurNS) zeroed — the determinism-comparable form. Everything else in an
// event is deterministic for a fixed (data, options, rank count) run.
func Canonical(events []Event) []Event {
	out := append([]Event(nil), events...)
	for i := range out {
		out[i].TNS = 0
		out[i].DurNS = 0
	}
	return out
}

// DiffCanonical compares two streams modulo wall-clock fields and returns a
// descriptive error at the first difference (nil if identical).
func DiffCanonical(a, b []Event) error {
	ca, cb := Canonical(a), Canonical(b)
	n := min(len(ca), len(cb))
	for i := 0; i < n; i++ {
		ja, err := json.Marshal(ca[i])
		if err != nil {
			return err
		}
		jb, err := json.Marshal(cb[i])
		if err != nil {
			return err
		}
		if string(ja) != string(jb) {
			return fmt.Errorf("obs: event %d differs:\n  a: %s\n  b: %s", i, ja, jb)
		}
	}
	if len(ca) != len(cb) {
		return fmt.Errorf("obs: stream lengths differ: %d vs %d events", len(ca), len(cb))
	}
	return nil
}

// WriteJSONL writes the stream as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// Package jobs is the job runtime above core.Supervise: a
// deterministic-scheduling queue that admits learning runs against a shared
// capacity pool, bounds each job by a deadline, and drains gracefully on
// demand — stop admitting, cancel running jobs through their contexts, and
// report the durable checkpoints each job left behind (DESIGN §13). It does
// not supervise: core restarts a crashed world (Options.MaxRestarts, resuming
// from Options.CheckpointDir), and between two worlds the runner only counts
// the restart and waits a jitter-free exponential backoff (DESIGN §22).
//
// Scheduling is strictly FIFO with head-of-line blocking: job i+1 is never
// admitted before job i, so the admission order is a pure function of the
// submission order — never of goroutine timing. Capacity is accounted in
// p×W slots (ranks × intra-rank workers), mirroring how the engine actually
// occupies cores. The runtime itself never perturbs determinism: each job's
// learned network is still a pure function of its (data, seed, options),
// whatever the runner interleaves.
//
// The package is supervisor-side code — it reads the wallclock for budget
// deadlines, backoff, and report durations, none of which feed
// learned-network state. Every read is audited with //parsivet:wallclock.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/obs"
	"parsimone/internal/trace"
)

// State is a job's lifecycle position.
type State int

const (
	// StateQueued: submitted, waiting for admission.
	StateQueued State = iota
	// StateRunning: admitted and executing (includes restarts and the backoff
	// before each).
	StateRunning
	// StateDone: completed with a learned network.
	StateDone
	// StateFailed: refused by the engine, out of restart budget, or still
	// queued when a drain began.
	StateFailed
	// StateCancelled: stopped by its deadline or by a drain; its checkpoint
	// directory (if any) resumes bit-identically.
	StateCancelled
)

// failedHelp describes jobs_failed_total: every job that ends in StateFailed.
const failedHelp = "jobs failed: refused by the engine, out of restart budget, or still queued when a drain began"

// String names the state for reports and logs.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrDrained fails jobs still queued when Drain is called: they never ran,
// so they have no checkpoint state.
var ErrDrained = errors.New("jobs: drained before admission")

// ErrClosed rejects submissions to a runner that is draining or closed.
var ErrClosed = errors.New("jobs: runner is closed to new submissions")

// Spec describes the learning run a job performs.
type Spec struct {
	// Name labels the job in events and reports.
	Name string
	// Ranks is p, the world size core.LearnParallel spins up (0 → 1).
	Ranks int
	// Data is the expression matrix to learn from.
	Data *dataset.Data
	// Options configures the run and reaches core as it is, restart budget
	// and checkpoint directory included; the runner sets only Ctx (the
	// job's deadline under the runner's drain).
	Options core.Options
}

// need is the job's p×W slot demand against the runner's capacity pool.
func (s Spec) need() int {
	return max(1, s.Ranks) * max(1, s.Options.Workers)
}

// Budget is what the runner itself bounds a job by. Everything else about a
// run — restart budget, checkpoint directory and format — is Spec.Options.
type Budget struct {
	// Deadline, when > 0, cancels the job that long after it starts
	// running (queue wait does not count). A job stopped by its deadline
	// ends StateCancelled with an error wrapping core.ErrDeadline, and its
	// checkpoint directory resumes bit-identically.
	Deadline time.Duration
}

// Report summarizes one job after the runner finished with it.
type Report struct {
	ID       int
	Name     string
	State    State
	Restarts int
	// Checkpoint is the job's checkpoint directory when it holds durable
	// resume state, "" otherwise.
	Checkpoint string
	// Duration is the job's wall-clock running time (zero if never
	// admitted).
	Duration time.Duration
	Err      error
}

// String renders the report as one log line.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %d", r.ID)
	if r.Name != "" {
		fmt.Fprintf(&b, " (%s)", r.Name)
	}
	fmt.Fprintf(&b, ": %s", r.State)
	if r.Restarts > 0 {
		fmt.Fprintf(&b, ", %d restarts", r.Restarts)
	}
	if r.Checkpoint != "" {
		fmt.Fprintf(&b, ", checkpoint %s", r.Checkpoint)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, ": %v", r.Err)
	}
	return b.String()
}

// Config configures a Runner.
type Config struct {
	// MaxJobs caps concurrently running jobs (0 → 1).
	MaxJobs int
	// Slots caps the summed p×W demand of running jobs (0 → unlimited).
	// A job whose own demand exceeds Slots is rejected at Submit — it
	// could never be admitted.
	Slots int
	// RetryBase is the backoff base: the runner waits RetryBase·2^(k−1)
	// before core's restart k (1-based), capped at maxRetryBackoff.
	// Jitter-free, so a fixed failure schedule replays an identical retry
	// schedule. 0 retries immediately.
	RetryBase time.Duration
	// Hooks receives the job lifecycle events
	// (queued/admitted/running/retry/checkpointed/done/failed) and the
	// jobs_* metrics. Nil disables both.
	Hooks *obs.Hooks
}

// Job is one submitted run. Its exported fields are immutable after Submit.
type Job struct {
	ID     int
	Spec   Spec
	Budget Budget

	r    *Runner
	done chan struct{}

	// Guarded by r.mu.
	state    State
	restarts int
	started  time.Time
	dur      time.Duration
	out      *core.Output
	err      error
}

// Wait blocks until the job reaches a terminal state and returns its
// output (nil unless StateDone) and error.
func (j *Job) Wait() (*core.Output, error) {
	<-j.done
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	return j.out, j.err
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	return j.state
}

// Restarts returns how many restarts the job's run has consumed.
func (j *Job) Restarts() int {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	return j.restarts
}

// report builds the job's Report; callers hold r.mu.
func (j *Job) reportLocked() Report {
	rep := Report{
		ID:       j.ID,
		Name:     j.Spec.Name,
		State:    j.state,
		Restarts: j.restarts,
		Duration: j.dur,
		Err:      j.err,
	}
	if dir := j.Spec.Options.CheckpointDir; len(core.DurableCheckpoints(dir)) > 0 {
		rep.Checkpoint = dir
	}
	return rep
}

// Runner is the supervised job queue. Create with New; submit with Submit;
// stop with Drain (cancel running work) or Close (let it finish).
type Runner struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     []*Job
	queue    []*Job
	running  int
	slots    int
	draining bool
	// closed stops admission of new submissions immediately (set by Close
	// before it waits, and by Drain), while draining additionally stops
	// the queue from being admitted.
	closed bool
}

// New returns a runner over the given configuration.
func New(cfg Config) *Runner {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1
	}
	r := &Runner{cfg: cfg}
	r.cond = sync.NewCond(&r.mu)
	r.ctx, r.cancel = context.WithCancel(context.Background())
	return r
}

// Submit enqueues one job. Admission is FIFO: the job runs once every
// earlier job has been admitted and the runner has MaxJobs and Slots
// capacity for it. Returns ErrClosed after Drain or Close, and an error for
// jobs whose p×W demand can never fit Slots.
func (r *Runner) Submit(spec Spec, b Budget) (*Job, error) {
	if spec.Data == nil {
		return nil, errors.New("jobs: Submit needs a dataset")
	}
	if spec.Ranks < 0 {
		return nil, fmt.Errorf("jobs: Ranks %d must be ≥ 0", spec.Ranks)
	}
	if r.cfg.Slots > 0 && spec.need() > r.cfg.Slots {
		return nil, fmt.Errorf("jobs: job needs %d slots (p=%d × W=%d) but the pool has only %d",
			spec.need(), max(1, spec.Ranks), max(1, spec.Options.Workers), r.cfg.Slots)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.draining {
		return nil, ErrClosed
	}
	j := &Job{ID: len(r.jobs), Spec: spec, Budget: b, r: r, done: make(chan struct{})}
	r.jobs = append(r.jobs, j)
	r.queue = append(r.queue, j)
	r.emit(obs.TypeJobQueued, j)
	r.count("jobs_submitted_total", "jobs submitted to the runner", 1)
	r.gauges()
	r.admitLocked()
	return j, nil
}

// admitLocked admits queue heads while capacity allows; callers hold r.mu.
// Head-of-line blocking keeps admission order deterministic: if the head
// does not fit, nothing behind it is considered.
func (r *Runner) admitLocked() {
	for !r.draining && len(r.queue) > 0 {
		j := r.queue[0]
		need := j.Spec.need()
		if r.running >= r.cfg.MaxJobs {
			return
		}
		if r.cfg.Slots > 0 && r.slots+need > r.cfg.Slots {
			return
		}
		r.queue = r.queue[1:]
		r.running++
		r.slots += need
		j.state = StateRunning
		j.started = time.Now() //parsivet:wallclock — report duration only, never feeds learned-network state
		r.emit(obs.TypeJobAdmitted, j)
		r.gauges()
		go r.run(j)
	}
}

// run executes one admitted job: one supervised run under the job's context.
// core restarts a crashed world; before each restart the runner charges it,
// says so (job.retry, jobs_retries_total) and waits the jitter-free backoff.
// A cancellation (deadline or drain) is terminal wherever it lands, mid-run
// or mid-backoff — the durable checkpoints are the job's result.
func (r *Runner) run(j *Job) {
	ctx := r.ctx
	cancel := context.CancelFunc(func() {})
	if j.Budget.Deadline > 0 {
		ctx, cancel = context.WithTimeout(r.ctx, j.Budget.Deadline)
	}
	defer cancel()

	opt := j.Spec.Options
	opt.Ctx = ctx

	r.mu.Lock()
	r.emit(obs.TypeJobRunning, j)
	r.mu.Unlock()

	out, err := core.Supervise(max(1, j.Spec.Ranks), j.Spec.Data, opt, func(ev trace.RecoveryEvent) {
		r.mu.Lock()
		j.restarts++
		j.err = errors.New(ev.String())
		r.emit(obs.TypeJobRetry, j)
		j.err = nil
		r.count("jobs_retries_total", "runner-level job restarts", 1)
		r.mu.Unlock()
		if r.cfg.RetryBase > 0 {
			select {
			case <-time.After(retryBackoff(r.cfg.RetryBase, ev.Attempt-1)):
			case <-ctx.Done():
			}
		}
	})
	var ce *core.CancelledError
	switch {
	case err == nil:
		r.finish(j, StateDone, out, nil)
	case errors.As(err, &ce):
		r.mu.Lock()
		if len(ce.Checkpoints) > 0 {
			r.emit(obs.TypeJobCheckpointed, j)
		}
		r.mu.Unlock()
		r.finish(j, StateCancelled, nil, err)
	default:
		r.finish(j, StateFailed, nil, err)
	}
}

// maxRetryBackoff caps the exponential retry backoff. A bare
// base << attempt overflows time.Duration once the shifted bit leaves the
// top of int64 — an HTTP-submitted job with a big max_restarts could shift
// into a negative duration, and time.After of a negative duration fires
// immediately, busy-looping restarts with no sleep between them.
const maxRetryBackoff = 30 * time.Second

// retryBackoff is base·2^attempt clamped to maxRetryBackoff. The comparison
// form base > maxRetryBackoff>>attempt never shifts base itself, so it is
// overflow-free for every attempt count.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	if base >= maxRetryBackoff || attempt >= 63 || base > maxRetryBackoff>>attempt {
		return maxRetryBackoff
	}
	return base << attempt
}

// finish moves a job to its terminal state, releases its capacity, and
// admits the next queue head.
func (r *Runner) finish(j *Job, st State, out *core.Output, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j.state = st
	j.out = out
	j.err = err
	j.dur = time.Since(j.started) //parsivet:wallclock — report duration only, never feeds learned-network state
	r.running--
	r.slots -= j.Spec.need()
	switch st {
	case StateDone:
		r.emit(obs.TypeJobDone, j)
		r.count("jobs_done_total", "jobs completed with a learned network", 1)
	case StateCancelled:
		r.emit(obs.TypeJobCancelled, j)
		r.count("jobs_cancelled_total", "jobs stopped by deadline or drain", 1)
	default:
		r.emit(obs.TypeJobFailed, j)
		r.count("jobs_failed_total", failedHelp, 1)
	}
	r.gauges()
	close(j.done)
	r.admitLocked()
	r.cond.Broadcast()
}

// Drain performs a graceful shutdown (the SIGTERM path): stop admitting,
// fail every still-queued job with ErrDrained, cancel the running jobs'
// contexts so they drain to durable checkpoints, wait for them to finish,
// and return one Report per submitted job, in submission order. Safe to
// call once; subsequent Submits return ErrClosed.
func (r *Runner) Drain() []Report {
	r.mu.Lock()
	r.closed = true
	r.draining = true
	for _, j := range r.queue {
		j.state = StateFailed
		j.err = ErrDrained
		r.emit(obs.TypeJobFailed, j)
		r.count("jobs_failed_total", failedHelp, 1)
		close(j.done)
	}
	r.queue = nil
	r.gauges()
	r.mu.Unlock()

	r.cancel() // running jobs observe cancellation at their next check
	r.mu.Lock()
	for r.running > 0 {
		r.cond.Wait()
	}
	reports := r.reportsLocked()
	r.mu.Unlock()
	return reports
}

// Close stops admission of new jobs and waits for every submitted job —
// queued and running — to finish normally (no cancellation), returning the
// reports in submission order. Admission closes immediately: a Submit
// racing Close returns ErrClosed rather than being accepted during the
// wait (which could otherwise starve Close indefinitely).
func (r *Runner) Close() []Report {
	r.mu.Lock()
	r.closed = true
	for len(r.queue) > 0 || r.running > 0 {
		r.cond.Wait()
	}
	r.draining = true
	reports := r.reportsLocked()
	r.mu.Unlock()
	r.cancel()
	return reports
}

// reportsLocked builds the per-job reports; callers hold r.mu.
func (r *Runner) reportsLocked() []Report {
	reports := make([]Report, len(r.jobs))
	for i, j := range r.jobs {
		reports[i] = j.reportLocked()
	}
	return reports
}

// emit sends one lifecycle event for j; callers hold r.mu (the recorder
// has its own lock, so nesting is safe).
func (r *Runner) emit(typ string, j *Job) {
	if r.cfg.Hooks == nil {
		return
	}
	info := &obs.JobInfo{
		ID:       j.ID,
		Name:     j.Spec.Name,
		Ranks:    max(1, j.Spec.Ranks),
		Workers:  max(1, j.Spec.Options.Workers),
		Restarts: j.restarts,
	}
	if typ == obs.TypeJobCheckpointed {
		info.Checkpoint = j.Spec.Options.CheckpointDir
	}
	if j.err != nil {
		info.Err = j.err.Error()
	}
	r.cfg.Hooks.Emit(obs.Event{Type: typ, Job: info})
}

// count bumps a runner counter metric.
func (r *Runner) count(name, help string, delta int64) {
	if reg := r.cfg.Hooks.Registry(); reg != nil {
		reg.Counter(name, help, "runner", "jobs").Add(delta)
	}
}

// gauges refreshes the queue/capacity gauges; callers hold r.mu.
func (r *Runner) gauges() {
	reg := r.cfg.Hooks.Registry()
	if reg == nil {
		return
	}
	reg.Gauge("jobs_queued", "jobs waiting for admission", "runner", "jobs").Set(float64(len(r.queue)))
	reg.Gauge("jobs_running", "jobs currently admitted", "runner", "jobs").Set(float64(r.running))
	reg.Gauge("jobs_slots_used", "p×W slots held by running jobs", "runner", "jobs").Set(float64(r.slots))
}

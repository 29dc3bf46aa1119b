package jobs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parsimone/internal/comm"
	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/obs"
	"parsimone/internal/result"
	"parsimone/internal/splits"
	"parsimone/internal/synth"
)

// fixture builds a small learning problem plus its uninterrupted reference
// network — the bit-identity oracle of every runtime test.
func fixture(t *testing.T) (*dataset.Data, core.Options, *core.Output) {
	t.Helper()
	d, _, err := synth.Generate(synth.Config{
		N: 48, M: 24, Regulators: 4, Modules: 4, Noise: 0.3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seed = 3
	opt.Ganesh.Updates = 1
	opt.Module.Splits = splits.Params{NumSplits: 2, MaxSteps: 16}
	want, err := core.Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d, opt, want
}

// eventTypes extracts the (type, job id) sequence of the job.* events.
func eventTypes(rec *obs.Recorder) []string {
	var seq []string
	for _, ev := range rec.Events() {
		if ev.Job != nil {
			seq = append(seq, fmt.Sprintf("%s:%d", ev.Type, ev.Job.ID))
		}
	}
	return seq
}

// TestRunnerFIFOAdmission: with one running slot, three jobs are admitted
// strictly in submission order, whatever order their goroutines would have
// been scheduled in, and all complete with the reference network.
func TestRunnerFIFOAdmission(t *testing.T) {
	d, opt, want := fixture(t)
	rec := obs.NewRecorder(0)
	r := New(Config{MaxJobs: 1, Hooks: obs.NewHooks(rec, nil, nil)})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := r.Submit(Spec{Name: fmt.Sprintf("job%d", i), Ranks: 1, Data: d, Options: opt}, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	reports := r.Close()
	for i, j := range jobs {
		out, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !result.Equal(out.Network, want.Network) {
			t.Fatalf("job %d learned a different network", i)
		}
		if reports[i].State != StateDone {
			t.Fatalf("report %d: state %v, want done", i, reports[i].State)
		}
	}
	var admitted []int
	for _, ev := range rec.Events() {
		if ev.Type == obs.TypeJobAdmitted {
			admitted = append(admitted, ev.Job.ID)
		}
	}
	if fmt.Sprint(admitted) != "[0 1 2]" {
		t.Fatalf("admission order %v, want [0 1 2]", admitted)
	}
	if err := obs.Validate(rec.Events()); err != nil {
		t.Fatalf("job event stream invalid: %v", err)
	}
}

// TestRunnerSlotAccounting: capacity is p×W — a job that saturates the pool
// holds back the next one until it finishes (admitted-after-done in the
// event stream), and a job that can never fit is rejected at Submit.
func TestRunnerSlotAccounting(t *testing.T) {
	d, opt, _ := fixture(t)
	rec := obs.NewRecorder(0)
	r := New(Config{MaxJobs: 8, Slots: 4, Hooks: obs.NewHooks(rec, nil, nil)})

	wide := opt
	wide.Workers = 2
	if _, err := r.Submit(Spec{Ranks: 4, Data: d, Options: wide}, Budget{}); err == nil {
		t.Fatal("job needing 8 slots admitted into a 4-slot pool")
	}

	// Job 0 needs 2×2 = 4 slots (the whole pool); job 1 needs 1.
	if _, err := r.Submit(Spec{Ranks: 2, Data: d, Options: wide}, Budget{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(Spec{Ranks: 1, Data: d, Options: opt}, Budget{}); err != nil {
		t.Fatal(err)
	}
	reports := r.Close()
	for _, rep := range reports {
		if rep.State != StateDone {
			t.Fatalf("%v", rep)
		}
	}
	var order []string
	for _, ev := range rec.Events() {
		if ev.Type == obs.TypeJobAdmitted || ev.Type == obs.TypeJobDone {
			order = append(order, fmt.Sprintf("%s:%d", ev.Type, ev.Job.ID))
		}
	}
	wantOrder := "[job.admitted:0 job.done:0 job.admitted:1 job.done:1]"
	if fmt.Sprint(order) != wantOrder {
		t.Fatalf("event order %v, want %v — job 1 was admitted while job 0 held the pool", order, wantOrder)
	}
}

// stalled returns opt observed into a fresh metrics registry, with a 50 ms
// stall injected halfway through the communication operations of that
// observed clean run. The fixture learns in about a millisecond; the stall
// makes a one-rank job outlast a 1 ms deadline on any host, and a
// cancellation check after it sees the deadline. An unobserved one-rank world
// communicates nothing; an observed one gathers its split pool cost once per
// module for the rank-imbalance event, and those are the ops the stall is
// addressed to. Observation is result-invisible.
func stalled(t *testing.T, d *dataset.Data, opt core.Options) core.Options {
	t.Helper()
	opt.Metrics = obs.NewRegistry()
	clean, err := core.Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if clean.CommStats.Ops < 2 {
		t.Fatalf("observed clean run made %d communication operations; the stall needs one past the first", clean.CommStats.Ops)
	}
	opt.Metrics = obs.NewRegistry()
	opt.Inject = &core.FaultSpec{Comm: []comm.Fault{
		{Rank: 0, Op: clean.CommStats.Ops / 2, Kind: comm.FaultDelay, Delay: 50 * time.Millisecond},
	}}
	return opt
}

// TestJobDeadlineDrainsToResumableCheckpoint: a deadline stops the job as
// StateCancelled with core.ErrDeadline, and the checkpoint directory it
// drained to resumes to the bit-identical network.
func TestJobDeadlineDrainsToResumableCheckpoint(t *testing.T) {
	d, opt, want := fixture(t)
	dir := t.TempDir()
	r := New(Config{MaxJobs: 1})
	ckpt := stalled(t, d, opt)
	ckpt.CheckpointDir = dir
	j, err := r.Submit(Spec{Ranks: 1, Data: d, Options: ckpt}, Budget{Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out, jerr := j.Wait()
	if out != nil || !errors.Is(jerr, core.ErrDeadline) {
		t.Fatalf("got (%v, %v), want (nil, ErrDeadline)", out != nil, jerr)
	}
	if j.State() != StateCancelled {
		t.Fatalf("state %v, want cancelled", j.State())
	}
	resumed := opt
	resumed.CheckpointDir = dir
	got, err := core.LearnParallel(1, d, resumed)
	if err != nil {
		t.Fatalf("resume from the drained checkpoint failed: %v", err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("resumed network differs from the uninterrupted run")
	}
	r.Drain()
}

// TestJobRetryAfterInjectedFault: core restarts under the runner as anywhere
// — an injected rank crash consumes one of the job's Options.MaxRestarts, the
// runner charges and announces it, the restart resumes from the checkpoint
// directory, and the final network is bit-identical.
func TestJobRetryAfterInjectedFault(t *testing.T) {
	d, opt, want := fixture(t)
	rec := obs.NewRecorder(0)
	reg := obs.NewRegistry()
	r := New(Config{MaxJobs: 1, RetryBase: time.Millisecond, Hooks: obs.NewHooks(rec, reg, nil)})
	injected := opt
	injected.Inject = &core.FaultSpec{Task: core.TaskGaneSH, Rank: 0}
	injected.MaxRestarts, injected.CheckpointDir = 1, t.TempDir()
	j, err := r.Submit(Spec{Name: "faulty", Ranks: 2, Data: d, Options: injected}, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	out, jerr := j.Wait()
	if jerr != nil {
		t.Fatalf("job failed despite its restart budget: %v", jerr)
	}
	if !result.Equal(out.Network, want.Network) {
		t.Fatal("retried job learned a different network")
	}
	if j.Restarts() != 1 {
		t.Fatalf("job consumed %d restarts, want 1", j.Restarts())
	}
	if len(out.Recovery) != 1 || out.Recovery[0].Attempt != 1 || out.Recovery[0].Rank != 0 {
		t.Fatalf("job output records recovery %+v, want the one restart after rank 0's crash", out.Recovery)
	}
	var sawRetry bool
	for _, ev := range rec.Events() {
		if ev.Type == obs.TypeJobRetry {
			sawRetry = true
			if ev.Job.Err == "" {
				t.Error("job.retry event carries no error description")
			}
		}
	}
	if !sawRetry {
		t.Fatal("no job.retry event emitted")
	}
	if got := reg.Counter("jobs_retries_total", "", "runner", "jobs").Value(); got != 1 {
		t.Fatalf("jobs_retries_total = %d, want 1", got)
	}
	r.Drain()
}

// TestJobExhaustsRestartBudget: with MaxRestarts 0, the injected crash is
// the job's terminal error.
func TestJobExhaustsRestartBudget(t *testing.T) {
	d, opt, _ := fixture(t)
	r := New(Config{MaxJobs: 1})
	injected := opt
	injected.Inject = &core.FaultSpec{Task: core.TaskGaneSH, Rank: 0}
	j, err := r.Submit(Spec{Ranks: 2, Data: d, Options: injected}, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, jerr := j.Wait(); !errors.Is(jerr, comm.ErrInjected) {
		t.Fatalf("got %v, want the injected crash", jerr)
	}
	if j.State() != StateFailed {
		t.Fatalf("state %v, want failed", j.State())
	}
	r.Drain()
}

// TestRunnerDoesNotRestartReturnedError: an error a rank returned — here a
// checkpoint directory written under another seed — is what every restarted
// world would return again, so the job fails on the first attempt with its
// restart budget unspent and no backoff slept.
func TestRunnerDoesNotRestartReturnedError(t *testing.T) {
	d, opt, _ := fixture(t)
	opt.CheckpointDir = t.TempDir()
	if _, err := core.LearnParallel(2, d, opt); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	r := New(Config{MaxJobs: 1, RetryBase: time.Millisecond, Hooks: obs.NewHooks(rec, nil, nil)})
	opt.Seed, opt.MaxRestarts = 99, 3
	j, err := r.Submit(Spec{Ranks: 2, Data: d, Options: opt}, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, jerr := j.Wait(); jerr == nil || !strings.Contains(jerr.Error(), "different configuration") {
		t.Fatalf("got %v, want the stale-checkpoint refusal", jerr)
	}
	if j.State() != StateFailed || j.Restarts() != 0 {
		t.Fatalf("state %v after %d restarts, want failed after 0", j.State(), j.Restarts())
	}
	for _, ev := range rec.Events() {
		if ev.Type == obs.TypeJobRetry {
			t.Fatalf("returned error was retried: %v", eventTypes(rec))
		}
	}
	r.Drain()
}

// TestSubmitRejectsNegativeRanks: Ranks 0 means one rank; a negative count is
// a world that cannot exist and is refused at the door, not learned at p = 1.
func TestSubmitRejectsNegativeRanks(t *testing.T) {
	d, opt, _ := fixture(t)
	r := New(Config{})
	if _, err := r.Submit(Spec{Ranks: -3, Data: d, Options: opt}, Budget{}); err == nil {
		t.Fatal("a job of -3 ranks was accepted")
	}
	r.Drain()
}

// TestRunnerDoesNotRetryRefusedRun: a run the engine refuses before a world
// exists is refused identically on every attempt, so it fails on the first
// and spends no restart budget — core restarts a crashed world and nothing
// else, and the runner waits only before a restart.
func TestRunnerDoesNotRetryRefusedRun(t *testing.T) {
	d, opt, _ := fixture(t)
	rec := obs.NewRecorder(0)
	r := New(Config{MaxJobs: 1, Hooks: obs.NewHooks(rec, nil, nil)})
	opt.GaneshRuns, opt.MaxRestarts = 0, 3
	j, err := r.Submit(Spec{Data: d, Options: opt}, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, jerr := j.Wait(); jerr == nil {
		t.Fatal("a run with GaneshRuns 0 succeeded")
	}
	if j.State() != StateFailed || j.Restarts() != 0 {
		t.Fatalf("state %v after %d restarts, want failed after 0", j.State(), j.Restarts())
	}
	for _, ev := range eventTypes(rec) {
		if ev == fmt.Sprintf("%s:%d", obs.TypeJobRetry, j.ID) {
			t.Fatalf("refused run was retried: %v", eventTypes(rec))
		}
	}
	r.Drain()
}

// TestDrainUnderFault is the graceful-drain acceptance property: a drain
// racing an injected rank crash (with a restart budget, so the drain can
// land before, during, or after the recovery) must end every job either
// completed — bit-identical network — or cancelled with durable state that
// resumes bit-identically. For p ∈ {1, 2, 4}; queued jobs behind the
// drained one fail with ErrDrained and never run.
func TestDrainUnderFault(t *testing.T) {
	d, opt, want := fixture(t)
	for _, p := range []int{1, 2, 4} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			dir := t.TempDir()
			r := New(Config{MaxJobs: 1, RetryBase: 20 * time.Millisecond})
			injected := opt
			if p == 1 {
				// Single-rank worlds have no comm ops to address; crash at
				// a pipeline failpoint instead.
				injected.Inject = &core.FaultSpec{Task: "module:0", Rank: 0}
			} else {
				injected.Inject = &core.FaultSpec{Comm: []comm.Fault{
					{Rank: p - 1, Op: 2, Kind: comm.FaultCrash},
				}}
			}
			injected.MaxRestarts, injected.CheckpointDir = 1, dir
			running, err := r.Submit(Spec{Name: "victim", Ranks: p, Data: d, Options: injected}, Budget{})
			if err != nil {
				t.Fatal(err)
			}
			queued, err := r.Submit(Spec{Name: "starved", Ranks: p, Data: d, Options: opt}, Budget{})
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond) // let the drain race the crash and retry
			reports := r.Drain()

			if _, qerr := queued.Wait(); !errors.Is(qerr, ErrDrained) {
				t.Fatalf("queued job got %v, want ErrDrained", qerr)
			}
			out, jerr := running.Wait()
			switch running.State() {
			case StateDone:
				if !result.Equal(out.Network, want.Network) {
					t.Fatal("drained job completed with a different network")
				}
			case StateCancelled:
				if !errors.Is(jerr, core.ErrCancelled) && !errors.Is(jerr, core.ErrDeadline) {
					t.Fatalf("cancelled job error %v carries no cancellation sentinel", jerr)
				}
				resumed := opt
				resumed.CheckpointDir = dir
				got, err := core.LearnParallel(p, d, resumed)
				if err != nil {
					t.Fatalf("resume of the drained job failed: %v", err)
				}
				if !result.Equal(got.Network, want.Network) {
					t.Fatal("drained job's checkpoint resumed to a different network")
				}
			default:
				t.Fatalf("drained job ended %v (err %v), want done or cancelled", running.State(), jerr)
			}
			if len(reports) != 2 || reports[1].Err == nil {
				t.Fatalf("reports %v do not cover both jobs", reports)
			}
			if _, err := r.Submit(Spec{Ranks: 1, Data: d, Options: opt}, Budget{}); !errors.Is(err, ErrClosed) {
				t.Fatalf("post-drain Submit got %v, want ErrClosed", err)
			}
		})
	}
}

// TestCancelEventMetricAgreement: a cancelled job emits job.cancelled —
// not job.failed — so the event stream agrees with jobs_cancelled_total.
func TestCancelEventMetricAgreement(t *testing.T) {
	d, opt, _ := fixture(t)
	rec := obs.NewRecorder(0)
	reg := obs.NewRegistry()
	r := New(Config{MaxJobs: 1, Hooks: obs.NewHooks(rec, reg, nil)})
	opt = stalled(t, d, opt)
	opt.CheckpointDir = t.TempDir()
	j, err := r.Submit(Spec{Name: "deadline", Ranks: 1, Data: d, Options: opt}, Budget{Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, jerr := j.Wait(); !errors.Is(jerr, core.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", jerr)
	}
	if j.State() != StateCancelled {
		t.Fatalf("state %v, want cancelled", j.State())
	}
	evs := rec.Events()
	if err := obs.Validate(evs); err != nil {
		t.Fatalf("event stream invalid: %v", err)
	}
	cancelled, failed := 0, 0
	for _, ev := range evs {
		switch ev.Type {
		case obs.TypeJobCancelled:
			cancelled++
		case obs.TypeJobFailed:
			failed++
		}
	}
	if cancelled != 1 || failed != 0 {
		t.Fatalf("saw %d job.cancelled and %d job.failed events, want 1 and 0", cancelled, failed)
	}
	if got := reg.Counter("jobs_cancelled_total", "", "runner", "jobs").Value(); got != int64(cancelled) {
		t.Fatalf("jobs_cancelled_total = %d disagrees with %d job.cancelled events", got, cancelled)
	}
	if got := reg.Counter("jobs_failed_total", "", "runner", "jobs").Value(); got != 0 {
		t.Fatalf("jobs_failed_total = %d, want 0", got)
	}
	r.Drain()
}

// TestMidBackoffCancelWrapsCancelledError: a drain landing while the job
// sits in retry backoff must surface the same *core.CancelledError shape as
// an in-run cancellation — naming the checkpoint directory — so callers
// using errors.As see every cancellation path uniformly.
func TestMidBackoffCancelWrapsCancelledError(t *testing.T) {
	d, opt, want := fixture(t)
	dir := t.TempDir()
	// A long backoff pins the job mid-backoff after its injected crash.
	r := New(Config{MaxJobs: 1, RetryBase: time.Hour})
	injected := opt
	injected.Inject = &core.FaultSpec{Task: core.TaskGaneSH, Rank: 0}
	injected.MaxRestarts, injected.CheckpointDir = 1, dir
	j, err := r.Submit(Spec{Name: "backoff", Ranks: 2, Data: d, Options: injected}, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	awaitBackoff(t, j)
	r.Drain()
	_, jerr := j.Wait()
	var ce *core.CancelledError
	if !errors.As(jerr, &ce) {
		t.Fatalf("mid-backoff cancellation returned %v (%T), want *core.CancelledError", jerr, jerr)
	}
	if ce.CheckpointDir != dir {
		t.Fatalf("CancelledError names checkpoint dir %q, want %q", ce.CheckpointDir, dir)
	}
	if len(ce.Checkpoints) == 0 {
		t.Fatal("CancelledError lists no durable checkpoints, but the GaneSH checkpoint was written before the crash")
	}
	resumed := opt
	resumed.CheckpointDir = dir
	got, err := core.LearnParallel(2, d, resumed)
	if err != nil {
		t.Fatalf("resume from the reported checkpoint failed: %v", err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("resumed network differs from the uninterrupted run")
	}
}

// awaitBackoff waits for the job's first restart to be charged — the job is
// then in (or entering) its backoff sleep.
func awaitBackoff(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.Restarts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never reached its retry backoff")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMidBackoffCancelIgnoresForeignFiles: "durable checkpoint" means the
// files a resume reads (core.DurableCheckpoints), not any file in the
// directory. A job that crashed before its first checkpoint and is then
// cancelled mid-backoff must not report resumable state — no listed
// checkpoints, no Report.Checkpoint, no job.checkpointed event — just
// because something else left a file there.
func TestMidBackoffCancelIgnoresForeignFiles(t *testing.T) {
	d, opt, _ := fixture(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	r := New(Config{MaxJobs: 1, RetryBase: time.Hour, Hooks: obs.NewHooks(rec, nil, nil)})
	injected := opt
	// An op count addresses a task only while the task communicates, and a
	// GaneSH run this small decides everything without a message (DESIGN
	// §19). Two runs on two ranks make the GaneSH task open with the
	// communicator split into one rank group per run, so rank 1's first
	// comm op is inside it: rank 1 dies before any run starts, long before
	// the first checkpoint is written.
	injected.GaneshRuns = 2
	injected.Inject = &core.FaultSpec{Comm: []comm.Fault{{Rank: 1, Op: 1, Kind: comm.FaultCrash}}}
	injected.MaxRestarts, injected.CheckpointDir = 1, dir
	j, err := r.Submit(Spec{Name: "foreign", Ranks: 2, Data: d, Options: injected}, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	awaitBackoff(t, j)
	reports := r.Drain()
	_, jerr := j.Wait()
	var ce *core.CancelledError
	if !errors.As(jerr, &ce) {
		t.Fatalf("mid-backoff cancellation returned %v (%T), want *core.CancelledError", jerr, jerr)
	}
	if len(ce.Checkpoints) != 0 {
		t.Fatalf("CancelledError lists %v as durable checkpoints; no checkpoint was written", ce.Checkpoints)
	}
	if len(reports) != 1 || reports[0].Checkpoint != "" {
		t.Fatalf("reports %v name a resumable checkpoint directory; it holds only a foreign file", reports)
	}
	for _, ev := range rec.Events() {
		if ev.Type == obs.TypeJobCheckpointed {
			t.Fatal("job.checkpointed emitted for a directory holding only a foreign file")
		}
	}
}

// TestSubmitDuringCloseReturnsErrClosed: Close documents that it stops
// admission — a Submit racing the Close wait must get ErrClosed immediately
// instead of being accepted (and potentially starving Close forever).
// Exercised under -race by `make race`.
func TestSubmitDuringCloseReturnsErrClosed(t *testing.T) {
	d, opt, _ := fixture(t)
	r := New(Config{MaxJobs: 1})
	if _, err := r.Submit(Spec{Name: "running", Ranks: 1, Data: d, Options: opt}, Budget{}); err != nil {
		t.Fatal(err)
	}
	closeDone := make(chan []Report, 1)
	go func() { closeDone <- r.Close() }()
	// Wait until Close has closed admission (it may still be waiting on
	// the running job).
	deadline := time.Now().Add(30 * time.Second)
	for {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never closed admission")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Submit(Spec{Ranks: 1, Data: d, Options: opt}, Budget{}); !errors.Is(err, ErrClosed) {
				t.Errorf("Submit during Close got %v, want ErrClosed", err)
			}
		}()
	}
	wg.Wait() // all Submits rejected without waiting for Close to finish
	reports := <-closeDone
	if len(reports) != 1 || reports[0].State != StateDone {
		t.Fatalf("reports %v, want the one pre-Close job done", reports)
	}
}

// TestRunnerEventStreamAndMetrics: the lifecycle stream of a mixed run
// (one success, one drained-away job) validates against the obs schema and
// feeds the metrics registry.
func TestRunnerEventStreamAndMetrics(t *testing.T) {
	d, opt, _ := fixture(t)
	rec := obs.NewRecorder(0)
	reg := obs.NewRegistry()
	r := New(Config{MaxJobs: 1, Hooks: obs.NewHooks(rec, reg, nil)})
	j, err := r.Submit(Spec{Name: "ok", Ranks: 1, Data: d, Options: opt}, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	// Drained before admission: emits job.failed with ErrDrained.
	r.mu.Lock()
	r.queue = append(r.queue, &Job{ID: len(r.jobs), Spec: Spec{Name: "late"}, r: r, done: make(chan struct{})})
	r.jobs = append(r.jobs, r.queue[0])
	r.mu.Unlock()
	r.Drain()

	evs := rec.Events()
	if err := obs.Validate(evs); err != nil {
		t.Fatalf("event stream invalid: %v", err)
	}
	seq := eventTypes(rec)
	wantPrefix := []string{"job.queued:0", "job.admitted:0", "job.running:0", "job.done:0"}
	for i, w := range wantPrefix {
		if i >= len(seq) || seq[i] != w {
			t.Fatalf("event sequence %v, want prefix %v", seq, wantPrefix)
		}
	}
	if seq[len(seq)-1] != "job.failed:1" {
		t.Fatalf("drain did not fail the queued job: %v", seq)
	}
	if got := reg.Counter("jobs_done_total", "", "runner", "jobs").Value(); got != 1 {
		t.Fatalf("jobs_done_total = %d, want 1", got)
	}
	if got := reg.Counter("jobs_failed_total", "", "runner", "jobs").Value(); got != 1 {
		t.Fatalf("jobs_failed_total = %d, want 1", got)
	}
}

// TestRetryBackoffClampsOverflow: the exponential backoff must saturate at
// maxRetryBackoff instead of shifting past the top of int64. Before the
// clamp, high attempt counts produced a negative duration, and
// time.After(negative) fires immediately — restarts busy-looped with no
// sleep between them.
func TestRetryBackoffClampsOverflow(t *testing.T) {
	base := 50 * time.Millisecond
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{0, base},
		{1, 2 * base},
		{3, 8 * base},
		{9, 25600 * time.Millisecond},
		{10, maxRetryBackoff}, // 51.2s uncapped
		{40, maxRetryBackoff}, // ~64 000 years uncapped
		{62, maxRetryBackoff}, // negative uncapped: the overflow the fix targets
		{63, maxRetryBackoff},
		{200, maxRetryBackoff}, // shift count alone is UB-adjacent uncapped
	} {
		got := retryBackoff(base, tc.attempt)
		if got != tc.want {
			t.Errorf("retryBackoff(%v, %d) = %v, want %v", base, tc.attempt, got, tc.want)
		}
		if got <= 0 {
			t.Errorf("retryBackoff(%v, %d) = %v, non-positive", base, tc.attempt, got)
		}
	}
	// The uncapped expression really does go negative at attempt 62 — the
	// premise of the regression.
	if raw := base << 62; raw > 0 {
		t.Fatalf("premise: %v << 62 = %v, expected overflow to negative", base, raw)
	}
	if retryBackoff(time.Hour, 5) != maxRetryBackoff {
		t.Fatal("base above the cap must saturate immediately")
	}
}

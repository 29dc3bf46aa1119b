// Package serve is the HTTP/JSON surface of parsimoned: a learn-and-predict
// service over the supervised job runtime (internal/jobs). Clients submit
// learning runs (inline TSV upload or a server-side dataset path, plus the
// result-affecting core.Options, the p×W execution shape, and a per-job
// budget), poll status, stream the job's obs `job.*` lifecycle events as
// JSONL, download the learned network in any of the three result formats,
// and run prediction queries against completed runs.
//
// Two properties of the engine shape the design (DESIGN §14):
//
//   - Determinism: the learned network is a pure function of (dataset,
//     options, seed), so the server keeps an exact result cache keyed by a
//     hash of exactly those inputs. A repeated submission returns the
//     cached bit-identical network without a second learning run, and an
//     in-flight duplicate is coalesced onto the running job. The same key
//     content-addresses the job's checkpoint directory, so a resubmission
//     after a drain resumes from its earlier incarnation's checkpoints.
//   - Cooperative cancellation: Drain (the SIGTERM path) rejects new
//     submissions with 503, cancels running jobs through their contexts so
//     they drain to durable checkpoints, and reports each job's resume
//     path.
//
// The package is supervisor-side code like internal/jobs: it never touches
// learned-network state, and it reads no wallclock (long-polls use timer
// channels only).
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"sync"

	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/jobs"
	"parsimone/internal/obs"
)

// errDraining rejects submissions while the server drains; mapped to 503.
var errDraining = errors.New("serve: draining, not accepting new jobs")

// Config configures a Server.
type Config struct {
	// Jobs configures the underlying runner (MaxJobs, Slots, RetryBase).
	// Hooks is owned by the server — it installs its own recorder and
	// registry so the event stream and /metrics are always wired.
	Jobs jobs.Config
	// CheckpointRoot, when set, gives every job a checkpoint directory
	// under it, content-addressed by the job's cache key — the durable
	// state a drain leaves behind and a resubmission resumes from. Empty
	// disables checkpointing.
	CheckpointRoot string
	// DataDir, when set, is the root for server-side dataset paths
	// (DatasetRequest.Path, resolved strictly inside it). Empty restricts
	// submissions to inline TSV uploads.
	DataDir string
	// Registry receives the runner's jobs_* metrics and the server's
	// serve_* metrics, exported at /metrics. NewServer creates one when
	// nil.
	Registry *obs.Registry
}

// servedJob is one submission as the server tracks it. The server assigns
// its own dense ids because cache hits never reach the runner.
type servedJob struct {
	id      int
	name    string
	key     string
	cached  bool // resolved from the result cache at submit time
	ranks   int
	workers int

	// job is the underlying runner job; nil for cache hits. Duplicate
	// submissions coalesced onto an in-flight job share its pointer.
	job   *jobs.Job
	entry *cacheEntry
	// done closes when the job is terminal and its result published
	// (closed at creation for cache hits).
	done chan struct{}

	// Guarded by Server.mu.
	terminal bool
	err      error
}

// Server is the parsimoned HTTP handler plus the state behind it: the job
// runner, the server-side job table, and the exact result cache.
type Server struct {
	cfg    Config
	runner *jobs.Runner
	rec    *obs.Recorder
	reg    *obs.Registry
	mux    *http.ServeMux

	mu       sync.Mutex
	draining bool
	table    []*servedJob
	inflight map[string]*servedJob // cache key → running job (single-flight)
	cache    map[string]*cacheEntry
	reports  []jobs.Report // drain reports, once drained

	// inject is the fault every submitted run carries; nil outside tests,
	// which use it to hold a run in the runner's retry backoff — in flight
	// by construction — until a drain releases it.
	inject *core.FaultSpec
}

// NewServer builds a server over the given configuration.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		rec:      obs.NewRecorder(0),
		reg:      cfg.Registry,
		inflight: map[string]*servedJob{},
		cache:    map[string]*cacheEntry{},
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	rcfg := cfg.Jobs
	rcfg.Hooks = obs.NewHooks(s.rec, s.reg, nil)
	s.runner = jobs.New(rcfg)
	s.routes()
	return s
}

// Registry returns the metrics registry the server exports at /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ServeHTTP implements http.Handler, counting each request against its
// route pattern (bounded label cardinality — never the raw URL).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	s.reg.Counter("serve_requests_total", "HTTP requests by route", "route", pattern).Add(1)
	// Dispatch through the mux itself (not the handler it returned) so the
	// request gets its path values bound.
	s.mux.ServeHTTP(w, r)
}

// submit resolves one job request: cache hit, coalesce onto an in-flight
// duplicate, or submit a fresh job to the runner. The returned bool is true
// when no new learning run was started.
func (s *Server) submit(req *JobRequest) (*servedJob, bool, error) {
	spec, budget, err := s.buildJob(req)
	if err != nil {
		return nil, false, err
	}
	d := spec.Data
	// What the engine would refuse is a bad request, not a job that fails.
	if err := core.Check(spec.Ranks, d, spec.Options); err != nil {
		return nil, false, err
	}
	key := core.RunKey(d, spec.Options)
	if s.cfg.CheckpointRoot != "" {
		spec.Options.CheckpointDir = filepath.Join(s.cfg.CheckpointRoot, key[:16])
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errDraining
	}
	if e, ok := s.cache[key]; ok {
		sj := &servedJob{
			id: len(s.table), name: req.Name, key: key, cached: true,
			ranks: spec.Ranks, workers: max(1, spec.Options.Workers),
			entry: e, done: make(chan struct{}), terminal: true,
		}
		close(sj.done)
		s.table = append(s.table, sj)
		s.reg.Counter("serve_cache_hits_total", "submissions served from the exact result cache", "server", "serve").Add(1)
		return sj, true, nil
	}
	if running, ok := s.inflight[key]; ok {
		// Single-flight: an identical submission is already learning (and,
		// when checkpointing, owns the key's checkpoint directory).
		// Coalesce instead of racing it.
		s.reg.Counter("serve_coalesced_total", "submissions coalesced onto an identical in-flight job", "server", "serve").Add(1)
		return running, true, nil
	}
	s.reg.Counter("serve_cache_misses_total", "submissions that required a learning run", "server", "serve").Add(1)
	// Submit under s.mu: Runner.Submit never blocks (admission is
	// asynchronous), and holding the lock makes the draining check and the
	// in-flight reservation atomic.
	run := spec
	run.Options.Inject = s.inject
	j, err := s.runner.Submit(run, budget)
	if err != nil {
		if errors.Is(err, jobs.ErrClosed) {
			err = errDraining
		}
		return nil, false, err
	}
	sj := &servedJob{
		id: len(s.table), name: req.Name, key: key,
		ranks: spec.Ranks, workers: max(1, spec.Options.Workers), job: j,
		entry: &cacheEntry{key: key, data: d, opt: spec.Options},
		done:  make(chan struct{}),
	}
	s.table = append(s.table, sj)
	s.inflight[key] = sj
	go s.finalize(sj)
	return sj, false, nil
}

// finalize waits for a runner job and publishes its result: on success the
// entry enters the result cache; either way the job leaves the in-flight
// set and its done channel closes.
func (s *Server) finalize(sj *servedJob) {
	out, err := sj.job.Wait()
	s.mu.Lock()
	sj.terminal = true
	sj.err = err
	delete(s.inflight, sj.key)
	if err == nil {
		sj.entry.out = out
		s.cache[sj.key] = sj.entry
		s.reg.Gauge("serve_cache_entries", "networks held by the exact result cache", "server", "serve").Set(float64(len(s.cache)))
	}
	s.mu.Unlock()
	close(sj.done)
}

// jobByID returns the server-side job with the given id.
func (s *Server) jobByID(id int) (*servedJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.table) {
		return nil, false
	}
	return s.table[id], true
}

// result returns a terminal job's cache entry (with its learned output), or
// an error describing why it has none yet.
func (s *Server) result(sj *servedJob) (*cacheEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sj.terminal {
		return nil, fmt.Errorf("job %d is not finished", sj.id)
	}
	if sj.err != nil || sj.entry.out == nil {
		return nil, fmt.Errorf("job %d has no result: %s", sj.id, s.stateLocked(sj))
	}
	return sj.entry, nil
}

// stateLocked names the job's current lifecycle state; callers hold s.mu.
// Terminal states come from the server's published view (so a "done" answer
// implies the result is fetchable), non-terminal ones from the runner.
func (s *Server) stateLocked(sj *servedJob) string {
	if sj.terminal {
		if sj.err != nil {
			var ce *core.CancelledError
			if errors.As(sj.err, &ce) {
				return jobs.StateCancelled.String()
			}
			return jobs.StateFailed.String()
		}
		return jobs.StateDone.String()
	}
	return sj.job.State().String()
}

// Drain performs the graceful SIGTERM shutdown: new submissions get 503,
// running jobs are cancelled through their contexts so they drain to
// durable checkpoints, and the runner's per-job reports — naming each
// resume path — are returned (and kept for later calls). Idempotent.
func (s *Server) Drain() []jobs.Report {
	s.mu.Lock()
	if s.draining {
		reports := s.reports
		s.mu.Unlock()
		return reports
	}
	s.draining = true
	s.mu.Unlock()

	reports := s.runner.Drain()
	s.mu.Lock()
	s.reports = reports
	s.mu.Unlock()
	return reports
}

// Close stops admission and waits for every submitted job to finish
// normally (no cancellation) — the test and smoke-run teardown.
func (s *Server) Close() []jobs.Report {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if alreadyDraining {
		s.mu.Lock()
		reports := s.reports
		s.mu.Unlock()
		return reports
	}
	reports := s.runner.Close()
	s.mu.Lock()
	s.reports = reports
	s.mu.Unlock()
	return reports
}

// loadDataset resolves the request's dataset: exactly one of an inline TSV
// upload or a server-side path under Config.DataDir.
func (s *Server) loadDataset(req *JobRequest) (*dataset.Data, error) {
	var (
		d   *dataset.Data
		err error
	)
	switch {
	case req.Dataset.TSV != "" && req.Dataset.Path != "":
		return nil, errors.New("dataset: give tsv or path, not both")
	case req.Dataset.TSV != "":
		d, err = dataset.ReadTSV(strings.NewReader(req.Dataset.TSV))
	case req.Dataset.Path != "":
		if s.cfg.DataDir == "" {
			return nil, errors.New("dataset: server-side paths are disabled (no data dir configured)")
		}
		if !filepath.IsLocal(req.Dataset.Path) {
			return nil, fmt.Errorf("dataset: path %q escapes the data dir", req.Dataset.Path)
		}
		d, err = dataset.LoadTSV(filepath.Join(s.cfg.DataDir, req.Dataset.Path))
	default:
		return nil, errors.New("dataset: tsv or path required")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return d, nil
}

// Options is the one mapping from a request's learning settings onto the
// engine: the dataset subset to the first N variables × M observations, and
// core.Options with the seed, the G/U/R/J/S counts, the split distribution,
// the regulator names resolved to variable indices, Workers and MaxRestarts
// set. Zero values keep the engine defaults; a negative count is refused,
// naming its field. POST /api/v1/jobs and the parsimone CLI (which fills a
// JobRequest from its flags) both go through it, so a flag and the JSON
// field of the same name cannot drift apart.
func (req *JobRequest) Options(d *dataset.Data) (*dataset.Data, core.Options, error) {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"n", req.N}, {"m", req.M}, {"ganesh_runs", req.GaneshRuns}, {"updates", req.Updates},
		{"trees", req.Trees}, {"splits", req.Splits}, {"max_steps", req.MaxSteps},
	} {
		if f.v < 0 {
			return nil, core.Options{}, fmt.Errorf("%s %d is negative (0 keeps the default)", f.name, f.v)
		}
	}
	if req.N > 0 || req.M > 0 {
		n, m := d.N, d.M
		if req.N > 0 {
			n = req.N
		}
		if req.M > 0 {
			m = req.M
		}
		var err error
		if d, err = d.Subset(n, m); err != nil {
			return nil, core.Options{}, fmt.Errorf("dataset: %w", err)
		}
	}
	opt := core.DefaultOptions()
	if req.Seed != 0 {
		opt.Seed = req.Seed
	}
	opt.Workers = req.Workers
	opt.MaxRestarts = req.MaxRestarts
	if req.GaneshRuns > 0 {
		opt.GaneshRuns = req.GaneshRuns
	}
	if req.Updates > 0 {
		opt.Ganesh.Updates = req.Updates
	}
	if req.Trees > 0 {
		opt.Module.Tree.Updates = req.Trees + opt.Module.Tree.Burnin
	}
	if req.Splits > 0 {
		opt.Module.Splits.NumSplits = req.Splits
	}
	if req.MaxSteps > 0 {
		opt.Module.Splits.MaxSteps = req.MaxSteps
	}
	switch req.Dist {
	case "", "static":
	case "scan": // the segmented scan is the static exchange: same bytes
	case "dynamic":
		opt.Module.Splits.DynamicChunk = 64
	default:
		return nil, core.Options{}, fmt.Errorf("dist %q not one of static, dynamic", req.Dist)
	}
	if req.CheckpointFormat != "" && req.CheckpointFormat != "binary" {
		return nil, core.Options{}, fmt.Errorf("checkpoint_format %q: checkpoints are always binary (leave it out or send \"binary\")", req.CheckpointFormat)
	}
	if len(req.Regulators) > 0 {
		index := make(map[string]int, d.N)
		for i, name := range d.Names {
			index[name] = i
		}
		for _, name := range req.Regulators {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			i, ok := index[name]
			if !ok {
				return nil, core.Options{}, fmt.Errorf("regulator %q is not a variable of the dataset", name)
			}
			opt.Module.Splits.Candidates = append(opt.Module.Splits.Candidates, i)
		}
		// Fail here rather than inside Learn: a list of only blanks would
		// otherwise produce the non-nil empty Candidates slice
		// splits.Params rejects.
		if len(opt.Module.Splits.Candidates) == 0 {
			return nil, core.Options{}, fmt.Errorf("regulators %q name no variables — the candidate-parent list would be empty", req.Regulators)
		}
	}
	return d, opt, nil
}

// buildJob loads the request's dataset and wraps its Options into a runner
// spec — the restart budget reaches core inside them —
// plus the one thing the runner bounds itself, the deadline. An absent ranks
// is one rank; a negative one is left for core.Check to refuse.
func (s *Server) buildJob(req *JobRequest) (jobs.Spec, jobs.Budget, error) {
	d, err := s.loadDataset(req)
	if err != nil {
		return jobs.Spec{}, jobs.Budget{}, err
	}
	d, opt, err := req.Options(d)
	if err != nil {
		return jobs.Spec{}, jobs.Budget{}, err
	}
	ranks := req.Ranks
	if ranks == 0 {
		ranks = 1
	}
	// A deadline that is not positive is no deadline, to the runner too.
	b := jobs.Budget{Deadline: time.Duration(req.DeadlineMS) * time.Millisecond}
	return jobs.Spec{Name: req.Name, Ranks: ranks, Data: d, Options: opt}, b, nil
}

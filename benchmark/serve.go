package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"parsimone/internal/core"
	"parsimone/internal/jobs"
	"parsimone/internal/result"
	"parsimone/internal/serve"
)

// The serve workload drives parsimoned's handler over loopback HTTP the way
// a service user does. One round is a complete scenario on a fresh server:
//
//	cold pass     2 clients, closed loop (each caller waits for its job):
//	              submit → long-poll done → download the binary network →
//	              decode and validate → 4 predicts, over serveJobs jobs, each
//	              with its own data set and seed
//	hit pass      every job resubmitted: 200 + cached + identical bytes
//	restart pass  close, new server on the same checkpoint root, resubmit the
//	              first serveResumes jobs: they resume from complete
//	              checkpoints and must return identical bytes
//
// Rounds repeat while another fits in -seconds. The jobs are many and small
// for the reason the batch workloads learn many instances (batch.go): one
// job's work depends on its seed, the median over 120 of them much less.

const (
	serveN, serveM           = 96, 32
	serveQuickN, serveQuickM = 32, 12
	serveJobs                = 120
	serveResumes             = 40
	serveWarm                = 8
	// serveSegment jobs run between two reference readings (host.go): 8 per
	// client, about half a second. The clients meet at the end of each
	// segment, so a caller still never waits for anything but its own job.
	serveSegment  = 16
	serveClients  = 2
	servePredicts = 4
	serveMaxSteps = 16
)

// serveJob is one learn job: its submission, and the network the first cold
// pass downloaded for it, which every later answer must equal.
type serveJob struct {
	in       *instance
	body     []byte
	predicts [][]byte // servePredicts request bodies
	want     []byte
	modules  int
}

// serveSamples collects the client-side timings across rounds, in wall
// seconds, and each round's cold-pass throughput. job is jobWall on the
// nominal host (host.go).
type serveSamples struct {
	job, jobWall, submit, status, network, predict, hit, resume, perS []float64
}

// client is one HTTP caller. Every request is a counted operation and, in a
// traced run, a span.
type client struct {
	r    *run
	http *http.Client
	base string
}

// do sends one request and returns the status, the body and the round trip
// in wall seconds. A transport error counts as a failed operation and
// returns status 0.
func (c *client) do(parent, rep int, span, method, path string, body []byte) (int, []byte, float64) {
	c.r.op()
	id := c.r.tr.begin(parent, span, rep)
	defer c.r.tr.end(id)
	start := now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.r.fail("%s %s: %v", method, path, err)
		return 0, nil, 0
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.r.fail("%s %s: %v", method, path, err)
		return 0, nil, 0
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.r.fail("%s %s: reading the body: %v", method, path, err)
		return 0, nil, 0
	}
	return resp.StatusCode, data, since(start).Seconds()
}

// expect fails the (already counted) request unless it returned want.
func (c *client) expect(what string, got, want int, body []byte) bool {
	if got == want {
		return true
	}
	if got != 0 { // a transport error was reported by do
		c.r.fail("%s: HTTP %d, want %d: %.200s", what, got, want, body)
	}
	return false
}

// submit posts a job and returns its status.
func (c *client) submit(parent, rep int, body []byte, want int) (serve.JobStatus, float64, bool) {
	var st serve.JobStatus
	code, data, rtt := c.do(parent, rep, "serve.POST /jobs", "POST", "/api/v1/jobs", body)
	if !c.expect("submit", code, want, data) {
		return st, rtt, false
	}
	if err := json.Unmarshal(data, &st); err != nil {
		c.r.fail("submit: %v", err)
		return st, rtt, false
	}
	return st, rtt, true
}

// await long-polls a job to its terminal state.
func (c *client) await(parent, rep, id int) bool {
	for {
		code, data, _ := c.do(parent, rep, "serve.GET /jobs/{id}?wait", "GET", fmt.Sprintf("/api/v1/jobs/%d?wait_ms=60000", id), nil)
		if !c.expect("status", code, http.StatusOK, data) {
			return false
		}
		var st serve.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			c.r.fail("status: %v", err)
			return false
		}
		switch st.State {
		case "done":
			return true
		case "failed", "cancelled":
			c.r.fail("job %d ended %s: %s", id, st.State, st.Error)
			return false
		}
	}
}

// network downloads a job's binary network and checks it: it must decode,
// validate, and equal the bytes of the job's first download.
func (c *client) network(parent, rep, id int, job *serveJob) (float64, bool) {
	code, data, rtt := c.do(parent, rep, "serve.GET /jobs/{id}/network", "GET", fmt.Sprintf("/api/v1/jobs/%d/network?format=binary", id), nil)
	if !c.expect("network", code, http.StatusOK, data) {
		return rtt, false
	}
	var net *result.Network
	var err error
	c.r.tr.do(parent, "result.ReadBinary", rep, func() {
		if net, err = result.ReadBinary(bytes.NewReader(data)); err == nil {
			err = net.Validate()
		}
	})
	if err != nil {
		c.r.fail("job %d: network does not decode: %v", id, err)
		return rtt, false
	}
	if job.want == nil {
		job.want, job.modules = data, len(net.Modules)
	} else if !bytes.Equal(data, job.want) {
		c.r.fail("job %d: network differs from the job's first download", id)
		return rtt, false
	}
	return rtt, true
}

func runServe(r *run) error {
	var all []*serveJob
	err := r.setups(func(parent int, first bool) error {
		got, err := r.setupServe(parent)
		if first {
			all = got
		}
		return err
	})
	if err != nil {
		return err
	}

	deadline := now().Add(r.budget())
	var ss serveSamples
	var last time.Duration
	for round := 0; ; round++ {
		if round >= 1 && (r.cfg.quick || r.cfg.trace || now().Add(last).After(deadline)) {
			break
		}
		start := now()
		r.serveRound(all, round, &ss)
		last = since(start)
	}
	if len(ss.perS) == 0 || len(ss.hit) == 0 || len(ss.resume) == 0 {
		return fmt.Errorf("no round completed")
	}

	// A cold job's latency is this workload's learn_s: what a caller waits
	// for one learn, here through the service.
	job := summarize("s", ss.job)
	r.set("learn_s", job)
	r.set("job_p50_s", job)
	r.set("learn_wall_s", summarize("s", ss.jobWall))
	r.set("jobs_per_s", summarize("1/s", ss.perS))
	r.set("hit_p50_s", summarize("s", ss.hit))
	r.set("predict_p50_s", summarize("s", ss.predict))
	r.set("resume_p50_s", summarize("s", ss.resume))
	if r.cfg.trace {
		p90 := func(xs []float64) Value { return scalar("s", quantile(sortedCopy(xs), 0.9)) }
		r.set("serve.submit_s", summarize("s", ss.submit))
		r.set("serve.status_s", summarize("s", ss.status))
		r.set("serve.network_s", summarize("s", ss.network))
		r.set("serve.job_p90_s", p90(ss.job))
		r.set("serve.hit_p90_s", p90(ss.hit))
		r.set("serve.predict_p90_s", p90(ss.predict))
		if err := r.admissionOverhead(all); err != nil {
			r.broken("admission overhead: %v", err)
		}
		net, err := result.ReadBinary(bytes.NewReader(all[0].want))
		if err != nil {
			return err
		}
		r.microProbes(net, all[0].in.tsv)
	}
	return nil
}

// setupServe is one complete set-up: generate every job's data set, encode
// it as the inline TSV its submission carries, boot a server behind a
// loopback listener, and take the first few jobs through it as a warm-up.
func (r *run) setupServe(parent int) ([]*serveJob, error) {
	n, m, k, warm := serveN, serveM, serveJobs, serveWarm
	if r.cfg.quick {
		n, m, k, warm = serveQuickN, serveQuickM, 4, 1
	}
	if r.cfg.trace {
		k /= 2
	}
	all := make([]*serveJob, k)
	for j := range all {
		in, err := r.newInstance(parent, j, n, m, func(o *core.Options) { o.Module.Splits.MaxSteps = serveMaxSteps })
		if err != nil {
			return nil, err
		}
		job := &serveJob{in: in}
		// instanceSeed is never 0, the API's "use the default".
		job.body, err = json.Marshal(serve.JobRequest{
			Name: fmt.Sprintf("bench-%d", j), Dataset: serve.DatasetRequest{TSV: string(in.tsv)},
			Seed: in.opt.Seed, MaxSteps: serveMaxSteps, CheckpointFormat: "binary",
		})
		if err != nil {
			return nil, err
		}
		for p := 0; p < servePredicts; p++ {
			obsv := make([]float64, in.data.N)
			for i := range obsv {
				obsv[i] = in.data.At(i, p)
			}
			body, err := json.Marshal(serve.PredictRequest{Observation: obsv})
			if err != nil {
				return nil, err
			}
			job.predicts = append(job.predicts, body)
		}
		all[j] = job
	}

	root := filepath.Join(r.workDir, "warm")
	defer os.RemoveAll(root)
	srv := serve.NewServer(serve.Config{Jobs: jobs.Config{MaxJobs: serveClients}, CheckpointRoot: root})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := &client{r: r, http: ts.Client(), base: ts.URL}
	for _, job := range all[:min(warm, k)] {
		if st, _, ok := c.submit(parent, 0, job.body, http.StatusAccepted); !ok || !c.await(parent, 0, st.ID) {
			return nil, fmt.Errorf("warm-up job failed")
		}
	}
	return all, nil
}

// serveRound runs one round and adds its samples; a cold pass in which a job
// failed contributes no throughput (the failures are counted).
func (r *run) serveRound(all []*serveJob, round int, ss *serveSamples) {
	sp := r.tr.begin(r.root, "round", round)
	defer r.tr.end(sp)
	root := filepath.Join(r.workDir, fmt.Sprintf("round-%d", round))
	defer os.RemoveAll(root)
	cfg := serve.Config{Jobs: jobs.Config{MaxJobs: serveClients}, CheckpointRoot: root}

	srv := serve.NewServer(cfg)
	ts := httptest.NewServer(srv)
	c := &client{r: r, http: ts.Client(), base: ts.URL}
	stop := func() {
		ts.Close()
		srv.Close()
	}

	// Cold pass, a segment at a time. Client i takes jobs i, i+2, ….
	heap := heapInUse()
	var wall float64
	complete := true
	for lo := 0; lo < len(all); lo += serveSegment {
		hi := min(lo+serveSegment, len(all))
		cold := make([]jobTiming, hi-lo)
		f := r.host.segment(func() {
			start := now()
			var wg sync.WaitGroup
			for i := 0; i < serveClients; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := lo + i; j < hi; j += serveClients {
						cold[j-lo], _ = c.coldJob(sp, round, all[j])
					}
				}()
			}
			wg.Wait()
			wall += since(start).Seconds()
		})
		for _, t := range cold {
			if !t.ok {
				complete = false
				continue
			}
			ss.job = append(ss.job, t.latency*f)
			ss.jobWall = append(ss.jobWall, t.latency)
			ss.submit = append(ss.submit, t.submit)
			ss.status = append(ss.status, t.status)
			ss.network = append(ss.network, t.network)
			ss.predict = append(ss.predict, t.predicts...)
		}
	}
	if round == 0 && r.cfg.trace {
		r.set("serve.heap_per_job_kb", scalar("kB", (heapInUse()-heap)/1024/float64(len(all))))
	}
	if !complete {
		stop()
		return
	}
	ss.perS = append(ss.perS, float64(len(all))/wall)

	// Hit pass.
	for j, job := range all {
		st, rtt, good := c.submit(sp, round, job.body, http.StatusOK)
		if !good {
			continue
		}
		if !st.Cached {
			c.r.fail("resubmitted job %d was not served from the cache", j)
			continue
		}
		if _, good := c.network(sp, round, st.ID, job); good {
			ss.hit = append(ss.hit, rtt)
		}
	}
	if round == 0 && r.cfg.trace {
		r.serveCounters(srv, root)
	}
	stop()

	// Restart pass.
	srv = serve.NewServer(cfg)
	ts = httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c = &client{r: r, http: ts.Client(), base: ts.URL}
	n := serveResumes
	if r.cfg.quick {
		n = 1
	}
	for _, job := range all[:min(n, len(all))] {
		start := now()
		st, _, good := c.submit(sp, round, job.body, http.StatusAccepted)
		if !good || !c.await(sp, round, st.ID) {
			continue
		}
		latency := since(start).Seconds()
		if _, good := c.network(sp, round, st.ID, job); good {
			ss.resume = append(ss.resume, latency)
		}
	}
}

// jobTiming is one cold job as its client saw it, in wall seconds.
type jobTiming struct {
	latency, submit, status, network float64
	predicts                         []float64
	ok                               bool
}

// coldJob takes a job through the service: submit, wait, download and
// check, predict.
func (c *client) coldJob(parent, rep int, job *serveJob) (jobTiming, bool) {
	var t jobTiming
	sp := c.r.tr.begin(parent, "serve.job", rep)
	defer c.r.tr.end(sp)
	start := now()
	st, rtt, ok := c.submit(sp, rep, job.body, http.StatusAccepted)
	if !ok || !c.await(sp, rep, st.ID) {
		return t, false
	}
	t.submit, t.latency = rtt, since(start).Seconds()
	code, data, rtt := c.do(sp, rep, "serve.GET /jobs/{id}", "GET", fmt.Sprintf("/api/v1/jobs/%d", st.ID), nil)
	if !c.expect("status", code, http.StatusOK, data) {
		return t, false
	}
	t.status = rtt
	if t.network, ok = c.network(sp, rep, st.ID, job); !ok {
		return t, false
	}
	for _, body := range job.predicts {
		code, data, rtt := c.do(sp, rep, "serve.POST /jobs/{id}/predict", "POST", fmt.Sprintf("/api/v1/jobs/%d/predict", st.ID), body)
		if !c.expect("predict", code, http.StatusOK, data) {
			return t, false
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(data, &pr); err != nil || len(pr.Predictions) != job.modules {
			c.r.fail("predict on job %d: %d predictions for %d modules (%v)", st.ID, len(pr.Predictions), job.modules, err)
			return t, false
		}
		t.predicts = append(t.predicts, rtt)
	}
	t.ok = true
	return t, true
}

// heapInUse is the live heap after a collection, in bytes.
func heapInUse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// serveCounters reads the first round's cache counters from the server's
// registry, and the bytes its jobs checkpointed.
func (r *run) serveCounters(srv *serve.Server, root string) {
	list, err := dumpRegistry(srv.Registry())
	if err != nil {
		r.broken("server registry: %v", err)
		return
	}
	dump := map[string]series{}
	addSeries(dump, list)
	r.set("serve.cache_hits", scalar("count", total(dump, "serve_cache_hits_total", "")))
	r.set("serve.cache_misses", scalar("count", total(dump, "serve_cache_misses_total", "")))
	r.set("serve.coalesced", scalar("count", total(dump, "serve_coalesced_total", "")))
	size, err := dirBytes(root)
	if err != nil {
		r.broken("checkpoint root: %v", err)
		return
	}
	r.set("wire.ckpt_bytes", scalar("count", float64(size)))
}

// admissionOverhead is what the job runtime adds to a learn: Submit→Wait on
// an idle runner minus the direct learn of the same spec. The direct learn's
// network must equal what the server returned for the job.
func (r *run) admissionOverhead(all []*serveJob) error {
	runner := jobs.New(jobs.Config{MaxJobs: 1})
	defer runner.Close()
	var over []float64
	for j, job := range all[:min(8, len(all))] {
		direct, ok := r.learnOnce(job.in, shape{name: "direct"}, r.root, j, false)
		if !ok {
			return fmt.Errorf("direct learn of job %d failed", j)
		}
		var err error
		r.op()
		t := r.call(r.root, "jobs.Runner.Submit+Wait", j, func() {
			var h *jobs.Job
			if h, err = runner.Submit(jobs.Spec{Data: job.in.data, Options: job.in.opt}, jobs.Budget{}); err == nil {
				_, err = h.Wait()
			}
		})
		if err != nil {
			return fmt.Errorf("job %d through the runner: %w", j, err)
		}
		if wire, err := networkBytes(direct.out.Network); err != nil || !bytes.Equal(wire, job.want) {
			return fmt.Errorf("job %d: the server's network differs from the direct learn's (%v)", j, err)
		}
		over = append(over, t-direct.wall)
	}
	r.set("jobs.admission_overhead_s", summarize("s", over))
	return nil
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/jobs"
	"parsimone/internal/obs"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/synth"
)

// fixture builds a small learning problem as the server would see it (TSV
// round-tripped) plus its reference network: the options below mirror what
// buildJob derives from the request fields used throughout these tests
// (seed 3, updates 1, splits 2, max_steps 16).
func fixture(t *testing.T) (string, *dataset.Data, *core.Output) {
	t.Helper()
	d0, _, err := synth.Generate(synth.Config{
		N: 48, M: 24, Regulators: 4, Modules: 4, Noise: 0.3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d0.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	tsv := buf.String()
	d, err := dataset.ReadTSV(strings.NewReader(tsv))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Learn(d, fixtureOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tsv, d, want
}

// fixtureOptions are the options the fixture's reference was learned with.
func fixtureOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Seed = 3
	opt.Ganesh.Updates = 1
	opt.Module.Splits = splits.Params{NumSplits: 2, MaxSteps: 16}
	return opt
}

// submitBody is the standard request the fixture's reference corresponds to.
func submitBody(tsv string) string {
	req := JobRequest{
		Name:     "t",
		Dataset:  DatasetRequest{TSV: tsv},
		Ranks:    1,
		Seed:     3,
		Updates:  1,
		Splits:   2,
		MaxSteps: 16,
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// call routes one request through the server and returns the response.
func call(t testing.TB, s *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// decode unmarshals a JSON response body.
func decode[T any](t testing.TB, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return v
}

// waitDone long-polls the status endpoint until the job is terminal.
func waitDone(t testing.TB, s *Server, id int) JobStatus {
	t.Helper()
	for i := 0; i < 600; i++ {
		w := call(t, s, "GET", fmt.Sprintf("/api/v1/jobs/%d?wait_ms=1000", id), "")
		st := decode[JobStatus](t, w)
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
	}
	t.Fatalf("job %d never reached a terminal state", id)
	return JobStatus{}
}

// TestSubmitWaitFetchRoundTrip: POST a learn job, long-poll it done, and
// fetch the network in all three formats, the module list, the per-module
// regulator scores, the event stream, and a prediction — the full surface
// against one run.
func TestSubmitWaitFetchRoundTrip(t *testing.T) {
	tsv, d, want := fixture(t)
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 2}})
	defer s.Close()

	w := call(t, s, "POST", "/api/v1/jobs", submitBody(tsv))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", w.Code, w.Body)
	}
	st := decode[JobStatus](t, w)
	if st.ID != 0 || st.Cached {
		t.Fatalf("submit status: %+v", st)
	}

	st = waitDone(t, s, 0)
	if st.State != "done" || st.Modules == 0 || st.Error != "" {
		t.Fatalf("terminal status: %+v", st)
	}

	// The network round-trips bit-identically in every format.
	readers := map[string]func(*bytes.Reader) (*result.Network, error){
		"json":   func(r *bytes.Reader) (*result.Network, error) { return result.ReadJSON(r) },
		"xml":    func(r *bytes.Reader) (*result.Network, error) { return result.ReadXML(r) },
		"binary": func(r *bytes.Reader) (*result.Network, error) { return result.ReadBinary(r) },
	}
	for format, read := range readers {
		w = call(t, s, "GET", "/api/v1/jobs/0/network?format="+format, "")
		if w.Code != http.StatusOK {
			t.Fatalf("network %s: code %d body %s", format, w.Code, w.Body)
		}
		got, err := read(bytes.NewReader(w.Body.Bytes()))
		if err != nil {
			t.Fatalf("network %s: %v", format, err)
		}
		if !result.Equal(got, want.Network) {
			t.Fatalf("network %s differs from the reference", format)
		}
	}

	// Module list and per-module lookup with regulator scores.
	w = call(t, s, "GET", "/api/v1/jobs/0/modules", "")
	mods := decode[[]moduleSummary](t, w)
	if len(mods) != len(want.Network.Modules) {
		t.Fatalf("module list: %d entries, want %d", len(mods), len(want.Network.Modules))
	}
	w = call(t, s, "GET", fmt.Sprintf("/api/v1/jobs/0/modules/%d", mods[0].ID), "")
	mod := decode[result.Module](t, w)
	if mod.ID != mods[0].ID || len(mod.Parents) != mods[0].Parents {
		t.Fatalf("module lookup: %+v vs summary %+v", mod, mods[0])
	}

	// The job's lifecycle event stream, as JSONL.
	w = call(t, s, "GET", "/api/v1/jobs/0/events", "")
	evs, err := obs.ReadJSONL(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range evs {
		if ev.Job == nil {
			t.Fatalf("event without job payload: %+v", ev)
		}
		seen[ev.Type] = true
	}
	for _, typ := range []string{obs.TypeJobQueued, obs.TypeJobAdmitted, obs.TypeJobRunning, obs.TypeJobDone} {
		if !seen[typ] {
			t.Fatalf("event stream is missing %s (got %v)", typ, seen)
		}
	}

	// Predictions on the first training observation, on an observation off
	// the training scale and on one of 10³⁰⁰ everywhere: one (mean,
	// variance) per module, exactly the library predictor's answer for the
	// same raw values, with its count of clipped values — every value of the
	// last, which is a 200 like the rest.
	lib, err := core.NewPredictor(d, fixtureOptions(), want)
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range []float64{0, 1.7, math.Inf(1)} {
		obsVec := make([]float64, d.N)
		for i := 0; i < d.N; i++ {
			obsVec[i] = d.At(i, 0)*(1+shift) + shift
			if math.IsInf(shift, 1) {
				obsVec[i] = 1e300
			}
		}
		body, _ := json.Marshal(PredictRequest{Observation: obsVec})
		w = call(t, s, "POST", "/api/v1/jobs/0/predict", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("predict: code %d body %s", w.Code, w.Body)
		}
		pr := decode[PredictResponse](t, w)
		if len(pr.Predictions) != len(want.Network.Modules) {
			t.Fatalf("predict: %d predictions, want %d", len(pr.Predictions), len(want.Network.Modules))
		}
		for _, p := range pr.Predictions {
			if p.Variance <= 0 {
				t.Fatalf("prediction %+v has non-positive variance", p)
			}
		}
		libPreds, libClipped, err := lib.Predict(obsVec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pr.Predictions, libPreds) || pr.Clipped != libClipped {
			t.Fatalf("shift %v: the daemon predicts %+v clipping %d, the library predictor %+v clipping %d",
				shift, pr.Predictions, pr.Clipped, libPreds, libClipped)
		}
		if math.IsInf(shift, 1) && pr.Clipped != d.N {
			t.Fatalf("all-10³⁰⁰ observation: %d of %d values clipped", pr.Clipped, d.N)
		}
	}
}

// TestPredictStandardizesLikeTraining: a training column mapped by the
// entry's predictor lands on exactly the cells the learner scored —
// dataset.Standardize, then score.QuantizeData — bit for bit, so a training
// observation reaches the CPDs as it was learned from. The data gets a
// constant variable, which both map to 0.
func TestPredictStandardizesLikeTraining(t *testing.T) {
	_, d, want := fixture(t)
	d = d.Clone()
	for j := 0; j < d.M; j++ {
		d.Values[5*d.M+j] = 2.5
	}
	e := &cacheEntry{data: d, opt: core.DefaultOptions(), out: want}
	p, err := e.predictor()
	if err != nil {
		t.Fatal(err)
	}
	trained := d.Clone()
	trained.Standardize()
	q := score.QuantizeData(trained)
	for _, j := range []int{0, d.M / 2, d.M - 1} {
		col := make([]float64, d.N)
		for i := range col {
			col[i] = d.At(i, j)
		}
		got, _, err := p.Transform.Observation(col)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != q.At(i, j) {
				t.Fatalf("observation %d, variable %d: predict side %d, trained on %d", j, i, v, q.At(i, j))
			}
		}
	}
}

// TestCacheHitBitIdenticalNoRelearn: a repeated identical submission — even
// at a different p×W shape — is served from the exact result cache with a
// byte-identical network and no second learning run.
func TestCacheHitBitIdenticalNoRelearn(t *testing.T) {
	tsv, _, _ := fixture(t)
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 2}})
	defer s.Close()

	w := call(t, s, "POST", "/api/v1/jobs", submitBody(tsv))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", w.Code, w.Body)
	}
	waitDone(t, s, 0)
	first := call(t, s, "GET", "/api/v1/jobs/0/network?format=binary", "")

	// Same learning problem, different execution shape: Workers is
	// result-invisible, so the key is identical and the cache answers.
	var req JobRequest
	json.Unmarshal([]byte(submitBody(tsv)), &req) //nolint:errcheck
	req.Workers = 2
	body, _ := json.Marshal(req)
	w = call(t, s, "POST", "/api/v1/jobs", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("resubmit: code %d, want 200 (cache hit), body %s", w.Code, w.Body)
	}
	st := decode[JobStatus](t, w)
	if !st.Cached || st.State != "done" || st.ID != 1 {
		t.Fatalf("resubmit status: %+v", st)
	}

	second := call(t, s, "GET", "/api/v1/jobs/1/network?format=binary", "")
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached network is not byte-identical to the original")
	}

	// No second learning run: exactly one job ever reached the runner.
	queued := 0
	for _, ev := range s.rec.Events() {
		if ev.Type == obs.TypeJobQueued {
			queued++
		}
	}
	if queued != 1 {
		t.Fatalf("%d jobs reached the runner, want 1", queued)
	}
	if hits := s.reg.Counter("serve_cache_hits_total", "", "server", "serve").Value(); hits != 1 {
		t.Fatalf("serve_cache_hits_total = %d, want 1", hits)
	}
}

// TestDrainRejectsAndReportsResumePaths: draining a loaded server 503s new
// submissions, cancels the running job to its durable checkpoints, surfaces
// the resume path in both the drain reports and the job status — and a
// fresh server over the same checkpoint root resumes the submission to the
// bit-identical network.
func TestDrainRejectsAndReportsResumePaths(t *testing.T) {
	tsv, _, want := fixture(t)
	root := t.TempDir()
	// The run is held in flight by construction: it crashes as module 0
	// starts, after the GaneSH and consensus checkpoints are durable, and
	// then waits out a retry backoff (capped at 30 s) that only the drain
	// cuts short.
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1, RetryBase: time.Hour}, CheckpointRoot: root})
	s.inject = &core.FaultSpec{Task: "module:0"}

	var req JobRequest
	json.Unmarshal([]byte(submitBody(tsv)), &req) //nolint:errcheck
	req.GaneshRuns = 2
	req.Trees = 2
	req.MaxRestarts = 1
	body, _ := json.Marshal(req)
	w := call(t, s, "POST", "/api/v1/jobs", string(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", w.Code, w.Body)
	}
	st := decode[JobStatus](t, w)
	ckptDir := filepath.Join(root, st.CacheKey[:16])

	// Wait until the run is in its backoff, then drain it there.
	sj, _ := s.jobByID(0)
	deadline := time.After(60 * time.Second)
	for sj.job.Restarts() == 0 {
		select {
		case <-deadline:
			t.Fatal("the run never reached its injected crash")
		case <-time.After(5 * time.Millisecond):
		}
	}
	reports := s.Drain()

	if len(reports) != 1 || reports[0].State != jobs.StateCancelled || reports[0].Restarts != 1 {
		t.Fatalf("drain reports: %+v", reports)
	}
	if reports[0].Checkpoint != ckptDir {
		t.Fatalf("drain report checkpoint %q, want %q", reports[0].Checkpoint, ckptDir)
	}

	// New submissions are rejected while draining.
	w = call(t, s, "POST", "/api/v1/jobs", submitBody(tsv))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: code %d, want 503", w.Code)
	}
	w = call(t, s, "GET", "/healthz", "")
	if h := decode[map[string]string](t, w); h["status"] != "draining" {
		t.Fatalf("healthz: %v", h)
	}

	// The job status maps the *core.CancelledError onto the resume path.
	st = waitDone(t, s, 0)
	if st.State != "cancelled" || st.Checkpoint != ckptDir || !st.Resumable {
		t.Fatalf("cancelled status: %+v", st)
	}

	// A fresh server over the same root content-addresses the same
	// checkpoint directory and resumes the run bit-identically.
	s2 := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1}, CheckpointRoot: root})
	defer s2.Close()
	w = call(t, s2, "POST", "/api/v1/jobs", string(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("resubmit: code %d body %s", w.Code, w.Body)
	}
	if st = waitDone(t, s2, 0); st.State != "done" {
		t.Fatalf("resumed job: %+v", st)
	}
	w = call(t, s2, "GET", "/api/v1/jobs/0/network?format=json", "")
	got, err := result.ReadJSON(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seed = 3
	opt.Ganesh.Updates = 1
	opt.GaneshRuns = 2
	opt.Module.Tree.Updates = 2 + opt.Module.Tree.Burnin
	opt.Module.Splits = splits.Params{NumSplits: 2, MaxSteps: 16}
	d, err := dataset.ReadTSV(strings.NewReader(tsv))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(got, ref.Network) {
		t.Fatal("resumed network differs from an uninterrupted run")
	}
	_ = want
}

// TestBadRequests covers the request-validation edges: malformed dataset
// choices, unknown enum values, path escapes, and unknown jobs.
func TestBadRequests(t *testing.T) {
	tsv, _, _ := fixture(t)
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1}})
	defer s.Close()

	post := func(mutate func(*JobRequest)) *httptest.ResponseRecorder {
		var req JobRequest
		json.Unmarshal([]byte(submitBody(tsv)), &req) //nolint:errcheck
		mutate(&req)
		b, _ := json.Marshal(req)
		return call(t, s, "POST", "/api/v1/jobs", string(b))
	}

	cases := []struct {
		name   string
		mutate func(*JobRequest)
	}{
		{"no dataset", func(r *JobRequest) { r.Dataset = DatasetRequest{} }},
		{"both tsv and path", func(r *JobRequest) { r.Dataset.Path = "x.tsv" }},
		{"path without data dir", func(r *JobRequest) { r.Dataset = DatasetRequest{Path: "x.tsv"} }},
		{"bad dist", func(r *JobRequest) { r.Dist = "chaotic" }},
		{"bad checkpoint format", func(r *JobRequest) { r.CheckpointFormat = "yaml" }},
		{"json checkpoint format", func(r *JobRequest) { r.CheckpointFormat = "json" }},
		{"unknown regulator", func(r *JobRequest) { r.Regulators = []string{"nope"} }},
		// A repeated name used to learn with that parent scored twice.
		{"repeated regulator", func(r *JobRequest) { r.Regulators = []string{"R0001", "R0002", "R0001"} }},
		{"negative restarts", func(r *JobRequest) { r.MaxRestarts = -1 }},
		// What core would refuse before starting a world is refused here,
		// not accepted as a job that fails (and used to be retried).
		{"negative workers", func(r *JobRequest) { r.Workers = -1; r.MaxRestarts = 3 }},
		{"one-variable data set", func(r *JobRequest) { r.N = 1 }},
		// Absent ranks means one; a negative count used to learn at p = 1.
		{"negative ranks", func(r *JobRequest) { r.Ranks = -3 }},
	}
	for _, tc := range cases {
		if w := post(tc.mutate); w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (body %s)", tc.name, w.Code, w.Body)
		}
	}
	// A negative count used to learn with the default (or all the data);
	// the 400 names the field.
	for _, tc := range []struct {
		field  string
		mutate func(*JobRequest)
	}{
		{"n -5", func(r *JobRequest) { r.N = -5 }},
		{"m -1", func(r *JobRequest) { r.M = -1 }},
		{"ganesh_runs -2", func(r *JobRequest) { r.GaneshRuns = -2 }},
		{"updates -4", func(r *JobRequest) { r.Updates = -4 }},
		{"trees -3", func(r *JobRequest) { r.Trees = -3 }},
		{"splits -1", func(r *JobRequest) { r.Splits = -1 }},
		{"max_steps -5", func(r *JobRequest) { r.MaxSteps = -5 }},
	} {
		if w := post(tc.mutate); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.field) {
			t.Errorf("%s: code %d, want a 400 naming the field (body %s)", tc.field, w.Code, w.Body)
		}
	}

	// A variable whose mean or standard deviation overflows float64 cannot
	// be standardized (core.Check); the 400 names the variable.
	for _, row := range []string{"1e300\t-1e300\t3e299", "1e308\t1e308\t0"} {
		tsv := "gene\to1\to2\to3\ng1\t1\t2\t3\ng2\t3\t1\t2\nhuge\t" + row + "\n"
		w := post(func(r *JobRequest) { r.Dataset = DatasetRequest{TSV: tsv} })
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "huge") {
			t.Errorf("overflowing row %q: code %d, want a 400 naming the variable (body %s)", row, w.Code, w.Body)
		}
	}

	if w := call(t, s, "GET", "/api/v1/jobs/99", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", w.Code)
	}
	if w := call(t, s, "GET", "/api/v1/jobs/notanint", ""); w.Code != http.StatusBadRequest {
		t.Errorf("non-numeric id: code %d, want 400", w.Code)
	}

	// Path escapes are rejected even with a data dir configured.
	s2 := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1}, DataDir: t.TempDir()})
	defer s2.Close()
	var req JobRequest
	req.Dataset = DatasetRequest{Path: "../etc/passwd"}
	b, _ := json.Marshal(req)
	if w := call(t, s2, "POST", "/api/v1/jobs", string(b)); w.Code != http.StatusBadRequest {
		t.Errorf("path escape: code %d, want 400", w.Code)
	}
}

// TestUnknownFieldsAndTrailingBytesRejected: a misspelled field or bytes
// after the JSON value fail the submit and predict requests with a 400 that
// says what is wrong, instead of running with the defaults; no job is
// admitted for a refused submit. A predict observation with a value that
// overflows float64 once standardized is refused too.
func TestUnknownFieldsAndTrailingBytesRejected(t *testing.T) {
	tsv, d, _ := fixture(t)
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1}})
	defer s.Close()

	body := submitBody(tsv)
	misspelled := strings.Replace(body, `"max_steps":16`, `"max_step":16`, 1)
	if misspelled == body {
		t.Fatal("submit body has no max_steps field to misspell")
	}
	refuse := func(name, target, body, want string) {
		t.Helper()
		w := call(t, s, "POST", target, body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (body %s)", name, w.Code, w.Body)
			return
		}
		if msg := decode[map[string]string](t, w)["error"]; !strings.Contains(msg, want) {
			t.Errorf("%s: error %q does not say %q", name, msg, want)
		}
	}
	refuse("misspelled field", "/api/v1/jobs", misspelled, `"max_step"`)
	refuse("trailing value", "/api/v1/jobs", body+` {"seed": 4}`, "after the JSON value")
	refuse("trailing garbage", "/api/v1/jobs", body+"x", "after the JSON value")
	if list := decode[[]JobStatus](t, call(t, s, "GET", "/api/v1/jobs", "")); len(list) != 0 {
		t.Fatalf("refused submits admitted %d jobs", len(list))
	}

	w := call(t, s, "POST", "/api/v1/jobs", body+"\n")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit with trailing newline: code %d (body %s)", w.Code, w.Body)
	}
	id := decode[JobStatus](t, w).ID
	if st := waitDone(t, s, id); st.State != "done" {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	obs, _ := json.Marshal(make([]float64, d.N))
	predict := fmt.Sprintf("/api/v1/jobs/%d/predict", id)
	refuse("misspelled predict field", predict, `{"observations":`+string(obs)+`}`, `"observations"`)
	refuse("trailing predict bytes", predict, `{"observation":`+string(obs)+`}}`, "after the JSON value")
	// A finite value whose standardized value overflows float64 would reach
	// the CPDs clipped to ±MaxAbsValue; the 400 names its index and value.
	_, sd := d.Moments()
	v := 0
	for i := range sd {
		if sd[i] < sd[v] {
			v = i
		}
	}
	if sd[v] >= 1 {
		t.Fatalf("the fixture's smallest standard deviation is %v: no finite value overflows", sd[v])
	}
	huge := make([]float64, d.N)
	huge[v] = math.MaxFloat64
	hugeObs, _ := json.Marshal(huge)
	refuse("overflowing observation", predict, `{"observation":`+string(hugeObs)+`}`,
		fmt.Sprintf("observation value %d is %g", v, math.MaxFloat64))
	if w := call(t, s, "POST", predict, `{"observation":`+string(obs)+`}`); w.Code != http.StatusOK {
		t.Fatalf("well-formed predict: code %d (body %s)", w.Code, w.Body)
	}
}

// TestDistScanIsStatic: "scan" names the static exchange it now is — the
// same engine options, so the same run key and the same network bytes as
// "static" and an absent dist.
func TestDistScanIsStatic(t *testing.T) {
	d, _, err := synth.Generate(synth.Config{N: 12, M: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := (&JobRequest{}).Options(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []string{"static", "scan"} {
		_, got, err := (&JobRequest{Dist: dist}).Options(d)
		if err != nil {
			t.Fatalf("dist %q: %v", dist, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("dist %q: options %+v, want the default's %+v", dist, got, want)
		}
	}
}

// TestMalformedQueryParamsRejected: a present-but-non-integer wait_ms or
// after is a 400, not a silent fall-back to the default (which turned a
// typo'd long-poll into an instant return). Empty values still mean default.
func TestMalformedQueryParamsRejected(t *testing.T) {
	tsv, _, _ := fixture(t)
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1}})
	defer s.Close()
	if w := call(t, s, "POST", "/api/v1/jobs", submitBody(tsv)); w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", w.Code, w.Body)
	}

	bad := []string{
		"/api/v1/jobs/0?wait_ms=abc",
		"/api/v1/jobs/0?wait_ms=12.5",
		"/api/v1/jobs/0/events?after=xyz",
		"/api/v1/jobs/0/events?wait_ms=abc",
		"/api/v1/jobs/0/events?after=3&wait_ms=1e3",
	}
	for _, target := range bad {
		w := call(t, s, "GET", target, "")
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (body %s)", target, w.Code, w.Body)
			continue
		}
		var body map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: missing JSON error body %q", target, w.Body)
		}
	}

	good := []string{
		"/api/v1/jobs/0",
		"/api/v1/jobs/0?wait_ms=",
		"/api/v1/jobs/0?wait_ms=1",
		"/api/v1/jobs/0/events?after=",
		"/api/v1/jobs/0/events?after=-1&wait_ms=1",
	}
	for _, target := range good {
		if w := call(t, s, "GET", target, ""); w.Code != http.StatusOK {
			t.Errorf("%s: code %d, want 200 (body %s)", target, w.Code, w.Body)
		}
	}
	waitDone(t, s, 0)
}

// TestServerSidePathAndMetrics: a dataset loaded by server-side path learns
// the same network as the inline upload, and /metrics exports the runner
// and server series in Prometheus text format.
func TestServerSidePathAndMetrics(t *testing.T) {
	tsv, _, want := fixture(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "expr.tsv"), []byte(tsv), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1}, DataDir: dir})
	defer s.Close()

	var req JobRequest
	json.Unmarshal([]byte(submitBody(tsv)), &req) //nolint:errcheck
	req.Dataset = DatasetRequest{Path: "expr.tsv"}
	b, _ := json.Marshal(req)
	w := call(t, s, "POST", "/api/v1/jobs", string(b))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %s", w.Code, w.Body)
	}
	waitDone(t, s, 0)
	w = call(t, s, "GET", "/api/v1/jobs/0/network?format=json", "")
	got, err := result.ReadJSON(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(got, want.Network) {
		t.Fatal("path-loaded dataset learned a different network")
	}

	w = call(t, s, "GET", "/metrics", "")
	text := w.Body.String()
	for _, series := range []string{"jobs_done_total", "serve_cache_misses_total", "serve_requests_total"} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
}

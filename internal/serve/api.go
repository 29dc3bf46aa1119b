// The HTTP/JSON API: request/response schemas and handlers. All routes live
// under /api/v1; errors are JSON objects {"error": "..."} with conventional
// status codes (400 bad request, 404 unknown job, 409 result not ready,
// 503 draining).

package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"parsimone/internal/core"
	"parsimone/internal/obs"
)

// maxBodyBytes caps request bodies (a TSV upload dominates).
const maxBodyBytes = 256 << 20

// maxWaitMS caps long-poll waits so a stuck client cannot pin a handler.
const maxWaitMS = 60_000

// DatasetRequest names the expression matrix to learn from: exactly one of
// an inline TSV upload or a path under the server's data dir.
type DatasetRequest struct {
	TSV  string `json:"tsv,omitempty"`
	Path string `json:"path,omitempty"`
}

// JobRequest is the POST /api/v1/jobs body, and what the parsimone CLI
// collects its flags of the same names into; Options maps either onto the
// engine. Zero values keep the engine defaults; Ranks and Workers set the
// p×W execution shape, which is result-invisible and therefore not part of
// the cache key.
type JobRequest struct {
	Name    string         `json:"name,omitempty"`
	Dataset DatasetRequest `json:"dataset"`

	Ranks   int    `json:"ranks,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`

	GaneshRuns int      `json:"ganesh_runs,omitempty"`
	Updates    int      `json:"updates,omitempty"`
	Trees      int      `json:"trees,omitempty"`
	Splits     int      `json:"splits,omitempty"`
	MaxSteps   int      `json:"max_steps,omitempty"`
	Dist       string   `json:"dist,omitempty"` // "static" blocks ("scan" is an alias) or "dynamic" chunks, both selected by the segmented scan
	Regulators []string `json:"regulators,omitempty"`
	N          int      `json:"n,omitempty"`
	M          int      `json:"m,omitempty"`

	DeadlineMS  int64 `json:"deadline_ms,omitempty"`
	MaxRestarts int   `json:"max_restarts,omitempty"`
	// CheckpointFormat may be absent or "binary", the one checkpoint
	// format; anything else is refused. It stays for clients that send it.
	CheckpointFormat string `json:"checkpoint_format,omitempty"`
}

// JobStatus is the server's view of one job, returned by the submit, list,
// and status endpoints.
type JobStatus struct {
	ID    int    `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// Cached reports that the submission was answered from the exact
	// result cache — no learning run happened for it.
	Cached  bool `json:"cached,omitempty"`
	Ranks   int  `json:"ranks"`
	Workers int  `json:"workers"`
	// Restarts counts the restarts the job's run has consumed so far.
	Restarts int `json:"restarts,omitempty"`
	// Modules is the learned module count (terminal done jobs only).
	Modules int `json:"modules,omitempty"`
	// Checkpoint is the resume path of a cancelled job (deadline or
	// drain); Resumable reports whether it holds durable checkpoints.
	Checkpoint string `json:"checkpoint,omitempty"`
	Resumable  bool   `json:"resumable,omitempty"`
	Error      string `json:"error,omitempty"`
	// CacheKey is the job's exact result-cache key — the hash of (dataset,
	// result-affecting options, seed) that a resubmission would hit.
	CacheKey string `json:"cache_key"`
}

// PredictRequest is the POST /api/v1/jobs/{id}/predict body: one raw
// observation vector with a value per variable, original (unstandardized)
// scale.
type PredictRequest struct {
	Observation []float64 `json:"observation"`
}

// PredictResponse carries one prediction per learned module.
type PredictResponse struct {
	Predictions []core.Prediction `json:"predictions"`
}

// moduleSummary is one row of the module list endpoint.
type moduleSummary struct {
	ID        int `json:"id"`
	Variables int `json:"variables"`
	Parents   int `json:"parents"`
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/network", s.handleNetwork)
	mux.HandleFunc("GET /api/v1/jobs/{id}/modules", s.handleModules)
	mux.HandleFunc("GET /api/v1/jobs/{id}/modules/{k}", s.handleModule)
	mux.HandleFunc("POST /api/v1/jobs/{id}/predict", s.handlePredict)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
}

// writeJSON renders v as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck — headers are sent; nothing left to report
}

// writeError renders an error body with the given status.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody decodes a request body holding exactly one JSON value into v.
// A field v does not have is an error that names it — a misspelled
// "max_step" must not learn with the default MaxSteps — and so is anything
// but white space after the value.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("request body continues after the JSON value")
	}
	return nil
}

// statusOf snapshots one job's JobStatus.
func (s *Server) statusOf(sj *servedJob) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID: sj.id, Name: sj.name, State: s.stateLocked(sj), Cached: sj.cached,
		Ranks: sj.ranks, Workers: sj.workers, CacheKey: sj.key,
	}
	if sj.job != nil {
		st.Restarts = sj.job.Restarts()
	}
	if sj.terminal && sj.err == nil && sj.entry.out != nil {
		st.Modules = len(sj.entry.out.Network.Modules)
	}
	if sj.err != nil {
		st.Error = sj.err.Error()
		var ce *core.CancelledError
		if errors.As(sj.err, &ce) {
			st.Checkpoint = ce.CheckpointDir
			st.Resumable = len(ce.Checkpoints) > 0
		}
	}
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req JobRequest
	if err := decodeBody(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sj, reused, err := s.submit(&req)
	switch {
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if reused {
		code = http.StatusOK
	}
	writeJSON(w, code, s.statusOf(sj))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snapshot := append([]*servedJob(nil), s.table...)
	s.mu.Unlock()
	list := make([]JobStatus, len(snapshot))
	for i, sj := range snapshot {
		list[i] = s.statusOf(sj)
	}
	writeJSON(w, http.StatusOK, list)
}

// lookup resolves the {id} path value; a nil return means the response was
// already written.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *servedJob {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil
	}
	sj, ok := s.jobByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return nil
	}
	return sj
}

// intParam parses an integer query parameter. An absent or empty value means
// def; a present non-integer value is a client error — the 400 is written
// here and ok is false. (Silently defaulting on a typo like ?wait_ms=abc
// turned long-polls into instant returns with no signal to the client.)
func intParam(w http.ResponseWriter, r *http.Request, name string, def int) (n int, ok bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New(name+": "+err.Error()))
		return 0, false
	}
	return n, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sj := s.lookup(w, r)
	if sj == nil {
		return
	}
	// ?wait_ms long-polls for the terminal state: the handler returns as
	// soon as the job finishes (result published), or with the current
	// state at timeout.
	waitMS, ok := intParam(w, r, "wait_ms", 0)
	if !ok {
		return
	}
	if waitMS = min(waitMS, maxWaitMS); waitMS > 0 {
		select {
		case <-sj.done:
		case <-time.After(time.Duration(waitMS) * time.Millisecond):
		}
	}
	writeJSON(w, http.StatusOK, s.statusOf(sj))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sj := s.lookup(w, r)
	if sj == nil {
		return
	}
	after, ok := intParam(w, r, "after", -1)
	if !ok {
		return
	}
	waitMS, ok := intParam(w, r, "wait_ms", 0)
	if !ok {
		return
	}
	waitMS = min(waitMS, maxWaitMS)
	var timeout <-chan time.Time
	if waitMS > 0 {
		timeout = time.After(time.Duration(waitMS) * time.Millisecond)
	}
	for {
		// Observe terminal-ness BEFORE scanning: the runner emits a job's
		// last event before its done channel closes, so a scan after done
		// was seen set cannot miss trailing events.
		terminal := sj.job == nil
		if !terminal {
			select {
			case <-sj.done:
				terminal = true
			default:
			}
		}
		evs := s.jobEvents(sj, after)
		if len(evs) > 0 || terminal || waitMS == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Job-State", s.statusOf(sj).State)
			obs.WriteJSONL(w, evs) //nolint:errcheck — client gone is not a server error
			return
		}
		select {
		case <-sj.done:
		case <-timeout:
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Job-State", s.statusOf(sj).State)
			return
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// jobEvents filters the shared recorder down to one job's job.* lifecycle
// events with Seq > after. Cache hits never reached the runner and have an
// empty stream. Seq numbers stay global (the recorder's), so a client
// resumes with after=<last seen seq>.
func (s *Server) jobEvents(sj *servedJob, after int) []obs.Event {
	if sj.job == nil {
		return nil
	}
	var out []obs.Event
	for _, ev := range s.rec.Events() {
		if ev.Seq > after && ev.Job != nil && ev.Job.ID == sj.job.ID {
			out = append(out, ev)
		}
	}
	return out
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	sj := s.lookup(w, r)
	if sj == nil {
		return
	}
	e, err := s.result(sj)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	n := e.out.Network
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		err = n.WriteJSON(w)
	case "xml":
		w.Header().Set("Content-Type", "application/xml")
		err = n.WriteXML(w)
	case "binary":
		w.Header().Set("Content-Type", "application/octet-stream")
		err = n.WriteBinary(w)
	default:
		writeError(w, http.StatusBadRequest, errors.New("format "+format+" not one of json, xml, binary"))
		return
	}
	_ = err // headers are sent; a broken pipe has no one left to tell
}

func (s *Server) handleModules(w http.ResponseWriter, r *http.Request) {
	sj := s.lookup(w, r)
	if sj == nil {
		return
	}
	e, err := s.result(sj)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	mods := e.out.Network.Modules
	list := make([]moduleSummary, len(mods))
	for i, mod := range mods {
		list[i] = moduleSummary{ID: mod.ID, Variables: len(mod.Variables), Parents: len(mod.Parents)}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleModule(w http.ResponseWriter, r *http.Request) {
	sj := s.lookup(w, r)
	if sj == nil {
		return
	}
	e, err := s.result(sj)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for i := range e.out.Network.Modules {
		if mod := &e.out.Network.Modules[i]; mod.ID == k {
			writeJSON(w, http.StatusOK, mod)
			return
		}
	}
	writeError(w, http.StatusNotFound, errors.New("no such module"))
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	sj := s.lookup(w, r)
	if sj == nil {
		return
	}
	e, err := s.result(sj)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req PredictRequest
	if err := decodeBody(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	p, err := e.predictor()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	preds, err := p.Predict(req.Observation)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{Predictions: preds})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w) //nolint:errcheck — client gone is not a server error
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

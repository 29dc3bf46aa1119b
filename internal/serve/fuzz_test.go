package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsimone/internal/jobs"
	"parsimone/internal/synth"
)

// fuzzTSV is a small data set as a TSV upload, for the fuzz targets' seeds
// and their one learn.
func fuzzTSV(f *testing.F) string {
	d, _, err := synth.Generate(synth.Config{N: 12, M: 8, Regulators: 2, Modules: 2, Noise: 0.3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.String()
}

// FuzzJobRequest: whatever a client sends to POST /api/v1/jobs, the answer
// is a 400, or — for a request that passes every check — the 503 of a
// draining server; no input makes the handler panic or answer anything
// else. The server is drained before the first input, so an accepted
// request shows without a learn: the submit path decodes the body, loads
// the data set, maps the options and asks core.Check before it looks at
// the draining flag. The seeds are the requests of the handler tests.
func FuzzJobRequest(f *testing.F) {
	tsv := fuzzTSV(f)
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "d.tsv"), []byte(tsv), 0o644); err != nil {
		f.Fatal(err)
	}
	body := submitBody(tsv)
	f.Add(body)
	f.Add(body + "\n")
	f.Add(body + ` {"seed": 4}`)
	f.Add(body + "x")
	f.Add(strings.Replace(body, `"max_steps":16`, `"max_step":16`, 1))
	f.Add(`{"dataset":{"path":"d.tsv"},"seed":9,"ranks":2,"workers":2}`)
	f.Add(`{"dataset":{"path":"../etc/passwd"}}`)
	f.Add(`{"dataset":{"path":"d.tsv","tsv":"x"}}`)
	f.Add(`{"dataset":{"path":"d.tsv"},"regulators":[" ",""]}`)
	f.Add(`{"dataset":{"path":"d.tsv"},"n":1}`)
	f.Add(`{"dataset":{"path":"d.tsv"},"n":100000,"m":3}`)
	f.Add(`{"dataset":{"path":"d.tsv"},"deadline_ms":-1,"max_restarts":-1}`)
	f.Add(`{"dataset":{"tsv":"name\tx\ny\t1\n"}}`)
	f.Add(`null`)
	f.Add(``)
	for _, mutate := range []func(*JobRequest){
		func(r *JobRequest) { r.Dataset = DatasetRequest{} },
		func(r *JobRequest) { r.Dist = "chaotic" },
		func(r *JobRequest) { r.Dist = "dynamic" },
		func(r *JobRequest) { r.CheckpointFormat = "json" },
		func(r *JobRequest) { r.Regulators = []string{"nope"} },
		func(r *JobRequest) { r.Workers = -1; r.MaxRestarts = 3 },
		func(r *JobRequest) { r.Ranks = -3 },
		func(r *JobRequest) { r.MaxSteps = -5 },
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			f.Fatal(err)
		}
		mutate(&req)
		b, _ := json.Marshal(req)
		f.Add(string(b))
	}
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1}, DataDir: dir})
	s.Close()
	f.Fuzz(func(t *testing.T, body string) {
		switch w := call(t, s, "POST", "/api/v1/jobs", body); w.Code {
		case http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q: code %d (%s), want 400 or the draining server's 503", body, w.Code, w.Body)
		}
	})
}

// FuzzPredictRequest: whatever a client sends to POST
// /api/v1/jobs/{id}/predict of a finished job, the answer is a 200 with one
// prediction per module or a 400; no input makes the handler panic or
// answer anything else.
func FuzzPredictRequest(f *testing.F) {
	tsv := fuzzTSV(f)
	s := NewServer(Config{Jobs: jobs.Config{MaxJobs: 1}})
	f.Cleanup(func() { s.Close() })
	w := call(f, s, "POST", "/api/v1/jobs", submitBody(tsv))
	if w.Code != http.StatusAccepted {
		f.Fatalf("submit: code %d (%s)", w.Code, w.Body)
	}
	st := waitDone(f, s, decode[JobStatus](f, w).ID)
	if st.State != "done" {
		f.Fatalf("job %s: %s", st.State, st.Error)
	}
	target := fmt.Sprintf("/api/v1/jobs/%d/predict", st.ID)
	obs, _ := json.Marshal(make([]float64, 12))
	f.Add(`{"observation":` + string(obs) + `}`)
	f.Add(`{"observation":[1e308,-1e308,0,0,0,0,0,0,0,0,0,0.5]}`)
	f.Add(`{"observation":[1,2,3]}`)
	f.Add(`{"observations":` + string(obs) + `}`)
	f.Add(`{"observation":` + string(obs) + `}}`)
	f.Add(`{"observation":[1e400]}`)
	f.Add(`{"observation":null}`)
	f.Add(`[]`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		switch w := call(t, s, "POST", target, body); w.Code {
		case http.StatusOK:
			if got := len(decode[PredictResponse](t, w).Predictions); got != st.Modules {
				t.Fatalf("body %q: %d predictions, want one per module, %d", body, got, st.Modules)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("body %q: code %d (%s), want 200 or 400", body, w.Code, w.Body)
		}
	})
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one traced call: the benchmark wraps every call it makes into a
// layer (name "<layer>.<Func>") and the repetition, workload and run that
// caused it (the parent chain). Spans are recorded from the benchmark's own
// files only; spans inside the engine are a later change.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the run span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays only the nil checks.
type tracer struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []Span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: now()}
}

// begin opens a span under parent and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent int, name string, rep int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: rep,
		StartNS: since(t.t0).Nanoseconds(),
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = since(t.t0).Nanoseconds()
}

// do wraps fn in a span.
func (t *tracer) do(parent int, name string, rep int, fn func()) {
	id := t.begin(parent, name, rep)
	fn()
	t.end(id)
}

// SelfTime aggregates the spans of one name: how many, their total duration,
// and their self time — duration minus the part of the interval child spans
// cover (children of concurrent clients may overlap, so the cover is the
// union of their intervals).
type SelfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func selfTimes(spans []Span) []SelfTime {
	children := make(map[int][]Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byName := map[string]*SelfTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := byName[s.Name]
		if st == nil {
			st = &SelfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalS += float64(s.EndNS-s.StartNS) / 1e9
		st.SelfS += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	out := make([]SelfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their per-name self times as
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Workload string     `json:"workload"`
		SelfTime []SelfTime `json:"self_time"`
		Spans    []Span     `json:"spans"`
	}{t.workload, selfTimes(spans), spans}, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// A lightweight metrics registry: counters, gauges, and fixed-bucket
// histograms with optional labels, dumped as JSON or Prometheus text
// exposition format. Deliberately tiny — no dependency, no background
// goroutines — because the container must not alter the run it observes.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates observations into fixed upper-bound buckets
// (cumulative, Prometheus-style, with an implicit +Inf bucket).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is +Inf
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the value v under one lock — for
// callers that have already tallied a large sample by value.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i] += n
	h.sum += v * float64(n)
	h.n += n
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// DefaultStepBuckets suits bootstrap step counts (MinSteps…MaxSteps).
var DefaultStepBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// series is one named+labeled metric in the registry.
type series struct {
	name   string
	help   string
	labels string // rendered `{k="v",…}` or ""
	kind   string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metrics by (name, labels). Safe for concurrent use from
// all ranks; lookups intern the series so hot paths pay one mutex + map hit.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// renderLabels turns ("phase", "splits/assign", "rank", "0") into the
// canonical sorted `{phase="splits/assign",rank="0"}` form.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key, value pairs")
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}"
}

// lookup interns the series for (name, labels), checking kind consistency.
func (r *Registry) lookup(name, help, kind string, kv []string) *series {
	labels := renderLabels(kv)
	key := name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[key]
	if !ok {
		s = &series{name: name, help: help, labels: labels, kind: kind}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		}
		r.series[key] = s
	}
	if s.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", key, s.kind, kind))
	}
	return s
}

// Counter returns (creating on first use) the counter name with the given
// key, value label pairs. A nil registry returns a no-op counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels).c
}

// Gauge returns (creating on first use) the gauge name with the given
// label pairs. A nil registry returns a no-op gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels).g
}

// Histogram returns (creating on first use) the histogram name with the
// given bucket upper bounds and label pairs. Bounds are fixed at first use.
// A nil registry returns a no-op histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		s.h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
	}
	return s.h
}

// snapshot returns the series sorted by (name, labels) for stable dumps.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// jsonMetric is the JSON dump form of one series.
type jsonMetric struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Help   string  `json:"help,omitempty"`
	Value  float64 `json:"value"`
	// Histogram-only fields.
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// WriteJSON dumps every metric as a JSON array sorted by (name, labels).
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	var out []jsonMetric
	for _, s := range r.snapshot() {
		m := jsonMetric{Name: s.name, Labels: s.labels, Kind: s.kind, Help: s.help}
		switch s.kind {
		case kindCounter:
			m.Value = float64(s.c.Value())
		case kindGauge:
			m.Value = s.g.Value()
		case kindHistogram:
			s.h.mu.Lock()
			m.Count = s.h.n
			m.Sum = s.h.sum
			m.Bounds = append([]float64(nil), s.h.bounds...)
			m.Buckets = append([]int64(nil), s.h.counts...)
			s.h.mu.Unlock()
			m.Value = float64(m.Count)
		}
		out = append(out, m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WritePrometheus dumps every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by (name, labels), with histogram series
// expanded into cumulative _bucket/_sum/_count lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	lastHelp := ""
	for _, s := range r.snapshot() {
		if s.name != lastHelp {
			if s.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.name, strings.ReplaceAll(s.help, "\n", " ")); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind); err != nil {
				return err
			}
			lastHelp = s.name
		}
		var err error
		switch s.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %v\n", s.name, s.labels, s.g.Value())
		case kindHistogram:
			err = s.h.writePrometheus(w, s.name, s.labels)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePrometheus renders one histogram's cumulative bucket series.
func (h *Histogram) writePrometheus(w io.Writer, name, labels string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	withLE := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return strings.TrimSuffix(labels, "}") + fmt.Sprintf(",le=%q}", le)
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(formatBound(b)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %v\n", name, labels, h.sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.n)
	return err
}

// formatBound renders a bucket bound the way Prometheus expects.
func formatBound(b float64) string {
	//parsivet:floateq — integrality test for rendering; Trunc equality is exact by construction
	if b == math.Trunc(b) && math.Abs(b) < 1e15 {
		return fmt.Sprintf("%d", int64(b))
	}
	return fmt.Sprintf("%g", b)
}

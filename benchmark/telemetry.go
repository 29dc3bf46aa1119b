package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"

	"parsimone/internal/obs"
)

// The engine's counters are read from outside, through what it already
// exposes: the obs.Registry JSON dump and the run's event stream.

// series is one metric of a registry dump.
type series struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels"`
	Value  float64 `json:"value"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
}

func dumpRegistry(reg *obs.Registry) ([]series, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var out []series
	err := json.Unmarshal(buf.Bytes(), &out)
	return out, err
}

// addSeries adds a dump's series into sums, keyed by name and labels.
func addSeries(sums map[string]series, dump []series) {
	for _, s := range dump {
		key := s.Name + "{" + s.Labels + "}"
		sum := sums[key]
		sum.Name, sum.Labels = s.Name, s.Labels
		sum.Value += s.Value
		sum.Count += s.Count
		sum.Sum += s.Sum
		sums[key] = sum
	}
}

// find returns the series called name whose labels contain label ("" matches
// any), in label order so that sums over them repeat exactly.
func find(sums map[string]series, name, label string) []series {
	var out []series
	for _, s := range sums {
		if s.Name == name && strings.Contains(s.Labels, label) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
	return out
}

// total sums the values of the matching series.
func total(sums map[string]series, name, label string) float64 {
	var sum float64
	for _, s := range find(sums, name, label) {
		sum += s.Value
	}
	return sum
}

// consensusIters is the number of power iterations a learn's consensus task
// took, from its event stream.
func consensusIters(events []obs.Event) (iters int) {
	for _, ev := range events {
		if ev.Type == obs.TypeConsensus && ev.Consensus != nil {
			iters += ev.Consensus.Iters
		}
	}
	return iters
}

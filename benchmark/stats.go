package main

import (
	"math"
	"sort"
)

// Value is one reported metric. Timings carry the distribution of their
// samples next to the median; counts and single readings carry only Value.
type Value struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N, Min, Q1, Q3 describe the samples Value is the median of (N == 0:
	// a single reading).
	N   int     `json:"n,omitempty"`
	Min float64 `json:"min,omitempty"`
	Q1  float64 `json:"q1,omitempty"`
	Q3  float64 `json:"q3,omitempty"`
}

// quantile is the linearly interpolated q-quantile of sorted xs (the
// "inclusive" method: the extremes are the 0 and 1 quantiles).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize reports the median of xs with its sample count, minimum and
// quartiles.
func summarize(unit string, xs []float64) Value {
	s := sortedCopy(xs)
	return Value{
		Unit: unit, Value: quantile(s, 0.5), N: len(s),
		Min: quantile(s, 0), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
	}
}

// scalar is a single reading: a count, a ratio, or a size.
func scalar(unit string, v float64) Value { return Value{Unit: unit, Value: v} }

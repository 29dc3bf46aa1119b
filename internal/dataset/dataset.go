// Package dataset holds the n×m expression matrix the learners consume:
// n variables (genes) observed in m conditions, continuous values, as in
// §2.1 of the paper. It supports the TSV interchange format used by
// Lemon-Tree-style tools (one row per variable: name followed by m values)
// and row/column subsetting for the paper's "first n variables × first m
// observations" experiment construction (§5.2).
package dataset

import (
	"fmt"
	"math"
)

// Data is an n×m matrix of observations with named variables.
type Data struct {
	// Names has one entry per variable (row).
	Names []string
	// Values is row-major: Values[i*M+j] is variable i in observation j.
	Values []float64
	N, M   int
}

// New allocates an n×m data set with generated variable names G0001….
func New(n, m int) *Data {
	d := &Data{
		Names:  make([]string, n),
		Values: make([]float64, n*m),
		N:      n,
		M:      m,
	}
	for i := range d.Names {
		d.Names[i] = fmt.Sprintf("G%04d", i)
	}
	return d
}

// At returns the value of variable i in observation j.
func (d *Data) At(i, j int) float64 { return d.Values[i*d.M+j] }

// Set assigns the value of variable i in observation j.
func (d *Data) Set(i, j int, v float64) { d.Values[i*d.M+j] = v }

// Row returns the observation vector of variable i, aliasing the underlying
// storage.
func (d *Data) Row(i int) []float64 { return d.Values[i*d.M : (i+1)*d.M] }

// Subset returns a deep copy restricted to the first n variables and first m
// observations, mirroring the paper's construction of smaller benchmark data
// sets from the full compendium.
func (d *Data) Subset(n, m int) (*Data, error) {
	if n <= 0 || n > d.N || m <= 0 || m > d.M {
		return nil, fmt.Errorf("dataset: subset %d×%d outside %d×%d", n, m, d.N, d.M)
	}
	s := New(n, m)
	copy(s.Names, d.Names[:n])
	for i := 0; i < n; i++ {
		copy(s.Row(i), d.Row(i)[:m])
	}
	return s, nil
}

// Clone returns a deep copy.
func (d *Data) Clone() *Data {
	c := New(d.N, d.M)
	copy(c.Names, d.Names)
	copy(c.Values, d.Values)
	return c
}

// Validate checks structural invariants and that all values are finite.
func (d *Data) Validate() error {
	if d.N < 0 || d.M < 0 {
		return fmt.Errorf("dataset: negative dimensions %d×%d", d.N, d.M)
	}
	if len(d.Names) != d.N {
		return fmt.Errorf("dataset: %d names for %d variables", len(d.Names), d.N)
	}
	if len(d.Values) != d.N*d.M {
		return fmt.Errorf("dataset: %d values for %d×%d matrix", len(d.Values), d.N, d.M)
	}
	for i, v := range d.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: non-finite value at cell %d", i)
		}
	}
	return nil
}

// Standardize rescales each variable in place to zero mean and unit variance
// (constant rows are left at zero), the usual preprocessing for expression
// compendia before module-network learning.
func (d *Data) Standardize() {
	mean, sd := d.Moments()
	for i := 0; i < d.N; i++ {
		row := d.Row(i)
		for j, v := range row {
			row[j] = Standardized(v, mean[i], sd[i])
		}
	}
}

// Moments returns each variable's mean and population standard deviation:
// the statistics Standardize rescales by, and core's training transform.
func (d *Data) Moments() (mean, sd []float64) {
	mean, sd = make([]float64, d.N), make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		row := d.Row(i)
		var sum float64
		for _, v := range row {
			sum += v
		}
		mean[i] = sum / float64(d.M)
		var ss float64
		for _, v := range row {
			dv := v - mean[i]
			ss += dv * dv
		}
		sd[i] = math.Sqrt(ss / float64(d.M))
	}
	return mean, sd
}

// Standardized maps v onto the standardized scale of a variable with the
// given Moments: (v − mean)/sd, or 0 for a constant variable.
func Standardized(v, mean, sd float64) float64 {
	if sd > 0 {
		return (v - mean) / sd
	}
	return 0
}

// SelectObservations returns a deep copy containing only the given
// observation columns, in the given order. Used for cross-validation folds.
func (d *Data) SelectObservations(cols []int) (*Data, error) {
	for _, j := range cols {
		if j < 0 || j >= d.M {
			return nil, fmt.Errorf("dataset: observation %d outside [0,%d)", j, d.M)
		}
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset: empty observation selection")
	}
	s := New(d.N, len(cols))
	copy(s.Names, d.Names)
	for i := 0; i < d.N; i++ {
		row := d.Row(i)
		out := s.Row(i)
		for k, j := range cols {
			out[k] = row[j]
		}
	}
	return s, nil
}

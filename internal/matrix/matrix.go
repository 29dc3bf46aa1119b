// Package matrix provides the sparse linear-algebra kernel the
// consensus-clustering task needs: symmetric non-negative matrices in
// compressed-sparse-row form, their restriction to a surviving index set,
// and a deterministic Lanczos solver for the dominant eigenpair (Michoel &
// Nachtergaele 2012 use the Perron eigenvector of the non-negative
// co-occurrence matrix to peel off consensus clusters). A thresholded
// co-occurrence matrix is a few percent non-zero, so a product costs
// O(nnz), not O(n²), and the solver's other work is O(k·n) for a basis of
// k vectors (DESIGN.md §17).
package matrix

import (
	"fmt"
	"math"
)

// CSR is a sparse symmetric n×n matrix: row i's non-zero cells are
// Col[RowPtr[i]:RowPtr[i+1]] (ascending) with values Val[…]. Every stored
// value is finite and positive.
type CSR struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// FromDense converts a row-major n×n buffer, which it does not retain. It
// returns an error if the buffer has the wrong size, holds a cell that is
// not a finite non-negative number (NaN, ±Inf, negative — on or off the
// diagonal), or is not symmetric. Finite cells are what makes dropping the
// zeros exact: 0·x is ±0 only for finite x.
func FromDense(n int, a []float64) (*CSR, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("matrix: %d values for %d×%d", len(a), n, n)
	}
	s := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for j, v := range a[i*n : (i+1)*n] {
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("matrix: cell (%d,%d) = %v is not a finite non-negative number", i, j, v)
			}
			//parsivet:floateq — symmetry validation wants bit equality of mirrored cells
			if j > i && v != a[j*n+i] {
				return nil, fmt.Errorf("matrix: not symmetric at (%d,%d)", i, j)
			}
			if v > 0 { // the rest are ±0, and so are their products
				s.Col = append(s.Col, j)
				s.Val = append(s.Val, v)
			}
		}
		s.RowPtr[i+1] = len(s.Col)
	}
	return s, nil
}

// Row returns row i's non-zero columns (ascending) and their values. The
// slices alias the matrix.
func (s *CSR) Row(i int) ([]int, []float64) {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	return s.Col[lo:hi], s.Val[lo:hi]
}

// MulVec computes y = S·x, each y[i] summed over row i's non-zero cells in
// ascending column order. x and y must have length N and must not alias.
func (s *CSR) MulVec(x, y []float64) {
	for i := 0; i < s.N; i++ {
		cols, vals := s.Row(i)
		vals = vals[:len(cols)]
		var sum float64
		for k, j := range cols {
			sum += float64(vals[k] * x[j])
		}
		y[i] = sum
	}
}

// Restrict shrinks s in place, in O(nnz), to the rows and columns i with
// relabel[i] ≥ 0, which become row and column relabel[i]. The kept indices
// must be numbered 0, 1, … in ascending order of i, so rows keep their
// ascending column order.
func (s *CSR) Restrict(relabel []int) {
	rows, w := 0, 0
	for i := 0; i < s.N; i++ {
		if relabel[i] < 0 {
			continue
		}
		lo, hi := s.RowPtr[i], s.RowPtr[i+1] // read before RowPtr[rows], rows ≤ i, is overwritten
		s.RowPtr[rows] = w
		rows++
		for k := lo; k < hi; k++ {
			if j := relabel[s.Col[k]]; j >= 0 {
				s.Col[w], s.Val[w] = j, s.Val[k]
				w++
			}
		}
	}
	s.RowPtr[rows] = w
	s.N, s.RowPtr, s.Col, s.Val = rows, s.RowPtr[:rows+1], s.Col[:w], s.Val[:w]
}

// Package matrix provides the sparse linear-algebra kernel the
// consensus-clustering task needs: symmetric non-negative matrices in
// compressed-sparse-row form, their restriction to a surviving index set,
// and deterministic power iteration for the dominant eigenpair (Michoel &
// Nachtergaele 2012 use the Perron eigenvector of the non-negative
// co-occurrence matrix to peel off consensus clusters). A thresholded
// co-occurrence matrix is a few percent non-zero, so every operation here
// costs O(nnz), not O(n²); DESIGN.md §17 shows that skipping the zero cells
// changes no result bit.
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
		var sum float64
		for k, j := range cols {
			sum += vals[k] * x[j]
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

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var ss float64
	for _, v := range x {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// PowerResult is the outcome of a power iteration.
type PowerResult struct {
	// Value is the dominant eigenvalue estimate (Rayleigh quotient) and
	// Vector the corresponding unit eigenvector.
	Value  float64
	Vector []float64
	// Iters is the number of iterations performed; Converged reports
	// whether both stop conditions were met before the iteration cap.
	Iters     int
	Converged bool
	// Residual is ‖S·v − λ·v‖ for the returned pair, at most 10⁻⁴·(1+|λ|)
	// when Converged: a stationary λ alone is not a pair (on a bipartite
	// matrix the iterate oscillates).
	Residual float64
}

// PowerIteration estimates the dominant eigenpair of s, starting from the
// deterministic uniform vector. For the non-negative matrices produced by
// co-occurrence accumulation the dominant eigenvalue is the Perron root and
// the eigenvector is entrywise non-negative. A zero matrix returns Value 0
// with the start vector. x and z are scratch of length s.N (a caller peeling
// many matrices reuses them); the returned Vector is one of the two.
//
// A step costs one product: S·y, computed for the Rayleigh quotient yᵀSy of
// the normalized iterate y, is also the next step's unnormalized iterate.
func PowerIteration(s *CSR, maxIter int, tol float64, x, z []float64) PowerResult {
	n := s.N
	if n == 0 {
		return PowerResult{Converged: true}
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	if tol <= 0 {
		tol = 1e-10
	}
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	s.MulVec(x, z)
	var lambda float64
	for it := 1; it <= maxIter; it++ {
		// Invariant: x is the current unit iterate and z = S·x.
		norm := Norm2(z)
		//parsivet:floateq — exact-zero null-space test; a sum of squares is 0 iff all terms are
		if norm == 0 {
			// x is in the null space; for non-negative matrices this
			// means the matrix is zero on the support of x.
			return PowerResult{Value: 0, Vector: x, Iters: it, Converged: true}
		}
		for i := range z {
			z[i] /= norm
		}
		// z is the next iterate y; x's old contents are dead, so it
		// receives S·y. Rayleigh quotient λ = yᵀSy.
		s.MulVec(z, x)
		var rq float64
		for i := range z {
			rq += z[i] * x[i]
		}
		// Convergence on the eigenvalue estimate, then on the pair.
		done := math.Abs(rq-lambda) <= tol*(1+math.Abs(rq))
		lambda = rq
		x, z = z, x
		if done {
			if r := residual(z, x, lambda); r <= 1e-4*(1+math.Abs(lambda)) {
				return PowerResult{Value: lambda, Vector: x, Iters: it, Converged: true, Residual: r}
			}
		}
	}
	return PowerResult{Value: lambda, Vector: x, Iters: maxIter, Converged: false, Residual: residual(z, x, lambda)}
}

// residual returns ‖sv − λ·v‖, where sv holds S·v.
func residual(sv, v []float64, lambda float64) float64 {
	var ss float64
	for i, w := range sv {
		d := w - lambda*v[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

package ltbaseline

import (
	"fmt"
	"math"
	"sort"

	"parsimone/internal/matrix"
)

// The reference peeling runs the engine's cut-offs (consensus package
// constants) through the power iteration the engine's Lanczos solver
// replaced, with that iteration's cap and stop rule.
const (
	minClusterSize = 2
	minEigenvalue  = 1.0
	supportFrac    = 0.5
	powerTol       = 1e-10
	powerMaxIter   = 20000
)

// consensusClusters peels the dense n×n co-occurrence matrix a the way the
// engine's consensus task did before its Lanczos solver, sparse builder and
// support-only sort: a full sort of the power-iteration eigenvector each
// round. It is the referee the exact-match tests hold the engine's
// consensus against.
func consensusClusters(n int, a []float64) ([][]int, error) {
	sub, err := matrix.FromDense(n, a)
	if err != nil {
		return nil, fmt.Errorf("ltbaseline: %w", err)
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	x, z := make([]float64, n), make([]float64, n)
	order, relabel := make([]int, n), make([]int, n)
	row := make([]float64, n)
	var clusters [][]int
	for len(remaining) >= minClusterSize {
		m := len(remaining)
		res := powerIteration(sub, powerMaxIter, powerTol, x[:m], z[:m])
		if !res.converged {
			return clusters, fmt.Errorf("ltbaseline: power iteration did not converge within %d iterations on %d remaining variables", powerMaxIter, m)
		}
		if res.value < minEigenvalue {
			break
		}
		members := fullSortExtract(sub, res.vector, order[:m], row[:m])
		if len(members) < minClusterSize {
			break
		}
		cluster := make([]int, len(members))
		clear(relabel[:m])
		for i, local := range members {
			cluster[i] = remaining[local]
			relabel[local] = -1
		}
		sort.Ints(cluster)
		clusters = append(clusters, cluster)
		kept := 0
		for local, global := range remaining {
			if relabel[local] >= 0 {
				relabel[local] = kept
				remaining[kept] = global
				kept++
			}
		}
		remaining = remaining[:kept]
		sub.Restrict(relabel[:m])
	}
	return clusters, nil
}

// powerResult is the outcome of a power iteration.
type powerResult struct {
	// value is the dominant eigenvalue estimate (Rayleigh quotient) and
	// vector the corresponding unit eigenvector.
	value  float64
	vector []float64
	// iters is the number of iterations performed; converged reports
	// whether both stop conditions were met before the iteration cap.
	iters     int
	converged bool
	// residual is ‖S·v − λ·v‖ for the returned pair, at most
	// 10⁻⁴·(1+|λ|) when converged: a stationary λ alone is not a pair (on
	// a bipartite matrix the iterate oscillates).
	residual float64
}

// powerIteration estimates the dominant eigenpair of s from the uniform
// vector, one product a step: S·y, computed for the Rayleigh quotient yᵀSy
// of the normalized iterate y, is also the next step's unnormalized
// iterate. It stops once the quotient moves by at most tol·(1+|λ|) and the
// pair's residual is at most 10⁻⁴·(1+|λ|), or after maxIter steps. A zero
// matrix returns value 0 with the start vector. x and z are scratch of
// length s.N; the returned vector is one of the two.
func powerIteration(s *matrix.CSR, maxIter int, tol float64, x, z []float64) powerResult {
	n := s.N
	if n == 0 {
		return powerResult{converged: true}
	}
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	s.MulVec(x, z)
	var lambda float64
	for it := 1; it <= maxIter; it++ {
		// x is the current unit iterate and z = S·x.
		norm := matrix.Norm2(z)
		//parsivet:floateq — exact-zero null-space test; a sum of squares is 0 iff all terms are
		if norm == 0 {
			return powerResult{value: 0, vector: x, iters: it, converged: true}
		}
		for i := range z {
			z[i] /= norm
		}
		s.MulVec(z, x)
		var rq float64
		for i := range z {
			rq += float64(z[i] * x[i])
		}
		done := math.Abs(rq-lambda) <= tol*(1+math.Abs(rq))
		lambda = rq
		x, z = z, x
		if done {
			if r := residual(z, x, lambda); r <= 1e-4*(1+math.Abs(lambda)) {
				return powerResult{value: lambda, vector: x, iters: it, converged: true, residual: r}
			}
		}
	}
	return powerResult{value: lambda, vector: x, iters: maxIter, residual: residual(z, x, lambda)}
}

// residual returns ‖sv − λ·v‖, where sv holds S·v.
func residual(sv, v []float64, lambda float64) float64 {
	var ss float64
	for i, w := range sv {
		d := w - float64(lambda*v[i])
		ss += float64(d * d)
	}
	return math.Sqrt(ss)
}

// fullSortExtract sorts every variable by eigenvector weight (descending,
// index ascending on ties) and cuts the support prefix at its largest
// within-prefix off-diagonal weight per member. row is zero on entry and
// on return; the result aliases order.
func fullSortExtract(sub *matrix.CSR, v []float64, order []int, row []float64) []int {
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		//parsivet:floateq — exact compare of one eigenvector's own entries; ties break on index
		if v[order[a]] != v[order[b]] {
			return v[order[a]] > v[order[b]]
		}
		return order[a] < order[b]
	})
	var within float64
	bestK, bestDensity := 0, 0.0
	cut := supportFrac * v[order[0]]
	for k := 1; k <= len(order); k++ {
		i := order[k-1]
		if v[i] <= 0 || v[i] < cut {
			break
		}
		cols, vals := sub.Row(i)
		for c, j := range cols {
			row[j] = vals[c]
		}
		for t := 0; t < k-1; t++ {
			within += 2 * row[order[t]]
		}
		for _, j := range cols {
			row[j] = 0
		}
		if density := within / float64(k); k >= minClusterSize && density > bestDensity {
			bestDensity, bestK = density, k
		}
	}
	return order[:bestK]
}

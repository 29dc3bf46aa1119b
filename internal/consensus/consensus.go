// Package consensus implements the second Lemon-Tree task (§2.2.2): turning
// an ensemble of sampled variable clusterings into a single consensus
// partition via the hypergraph spectral method of Michoel & Nachtergaele
// (2012). The thresholded co-occurrence frequency matrix (built sparse by
// ganesh.CoOccurrenceCSR) is peeled greedily: the dominant (Perron)
// eigenvector of the matrix restricted to the unassigned variables points
// at the densest cluster; its strongest prefix is extracted as a cluster
// and the process repeats until the dominant eigenvalue falls below a
// cutoff or too few variables remain.
//
// The paper measures the task at <0.04 % of total run time and keeps it
// sequential — replicated on all ranks in the parallel pipeline. It is that
// cheap only when a round costs what the thresholded matrix holds, not n²:
// the matrix is built and kept in CSR form (internal/matrix), a round
// restricts it in place, and its Lanczos solver needs a few sparse products
// where a power iteration took hundreds. DESIGN.md §17 has the design and
// EXPERIMENTS.md (Figure 5a) the measured share.
package consensus

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"parsimone/internal/matrix"
	"parsimone/internal/obs"
	"parsimone/internal/rank"
)

// Params configures consensus clustering. It has no field: the peeling's
// cut-offs and its solver's cap are package constants (DESIGN §21). Only
// the dense Cluster takes it, for callers that pass core.Options.Consensus.
type Params struct{}

// The peeling's cut-offs, Lemon-Tree's and the same in every run
// (DESIGN §17).
const (
	// minClusterSize is the smallest cluster kept as a module; a smaller
	// extraction stops the peeling.
	minClusterSize = 2
	// minEigenvalue stops the peeling once the dominant eigenvalue of the
	// remaining matrix drops below it: an isolated variable contributes
	// exactly 1 through its unit diagonal.
	minEigenvalue = 1.0
	// supportFrac is the eigenvector support cut: only variables whose
	// Perron-vector component is at least supportFrac times the largest
	// component are candidates for the extracted cluster.
	supportFrac = 0.5
	// tol is the Lanczos solver's stop test on the Ritz residual
	// estimate, relative to 1+|θ|.
	tol = 1e-10
	// maxProducts caps the matrix products of one peeling round. No round
	// of the measured grids comes near it (DESIGN §17); a round that
	// reaches it fails the clustering with an error.
	maxProducts = 20000
)

// peeling is what one clustering runs with: the constants above. The
// package's tests peel with other cut-offs and caps through it.
type peeling struct {
	minClusterSize                  int
	minEigenvalue, supportFrac, tol float64
	maxProducts                     int
}

var defaultPeeling = peeling{minClusterSize, minEigenvalue, supportFrac, tol, maxProducts}

// Cluster extracts consensus clusters from the n×n co-occurrence matrix a
// (row-major, symmetric, non-negative; see ganesh.CoOccurrence). It is
// ClusterWithComm on rank.Self(nil) after matrix.FromDense, whose checks
// (wrong size, asymmetric, or a NaN, infinite or negative cell anywhere)
// return an error; a is not retained.
func Cluster(n int, a []float64, _ Params) ([][]int, error) {
	s, err := matrix.FromDense(n, a)
	if err != nil {
		return nil, fmt.Errorf("consensus: %w", err)
	}
	return ClusterWithComm(rank.Self(nil), s)
}

// ClusterWithComm extracts consensus clusters from the thresholded
// co-occurrence matrix s (see ganesh.CoOccurrenceCSR), which it consumes:
// each round restricts s in place to the variables still unassigned. It
// returns the clusters, each sorted ascending, ordered by extraction
// (densest first). Variables not in any returned cluster are not part of
// any module, matching Lemon-Tree's behaviour of dropping weakly
// co-clustered genes. A round whose solver does not converge within
// maxProducts products returns an error, alongside the clusters extracted
// before it.
//
// The task is replicated, not distributed: every rank of rc's world
// computes the same clusters and polls its own cancellation signal once per
// peeling round — the same deterministic point everywhere, so no collective
// is reordered (DESIGN §13) — while only rank 0 emits the consensus.extract
// event of each round, which keeps the merged event stream free of p-fold
// duplicates.
func ClusterWithComm(rc rank.Context, s *matrix.CSR) ([][]int, error) {
	return peel(rc, s, defaultPeeling)
}

// peel is ClusterWithComm under the cut-offs and cap of pl.
func peel(rc rank.Context, sub *matrix.CSR, pl peeling) ([][]int, error) {
	var hooks *obs.Hooks
	if rc.Comm.Rank() == 0 {
		hooks = rc.Hooks
	}
	n := sub.N
	// remaining[local] is the variable behind row `local` of sub.
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	// Scratch shared by all rounds, sliced to the current size.
	solver := matrix.NewLanczos(n)
	order, relabel := make([]int, n), make([]int, n)
	row := make([]float64, n)
	var clusters [][]int
	for len(remaining) >= pl.minClusterSize {
		rc.Cancel.Check()
		m := len(remaining)
		res := solver.Dominant(sub, pl.maxProducts, pl.tol)
		if !res.Converged {
			hooks.Emit(obs.Event{Type: obs.TypeConsensus, Consensus: &obs.ConsensusInfo{
				Remaining: m, Eigenvalue: res.Value, Iters: res.Products, Residual: res.Residual,
			}})
			return clusters, fmt.Errorf(
				"consensus: Lanczos solver did not converge within %d matrix products on %d remaining variables (eigenvalue estimate %g, tol %g)",
				pl.maxProducts, m, res.Value, pl.tol)
		}
		extracted := 0
		var members []int
		if res.Value >= pl.minEigenvalue {
			members = extract(sub, res.Vector, pl.minClusterSize, pl.supportFrac, order, row[:m])
			if len(members) >= pl.minClusterSize {
				extracted = len(members)
			}
		}
		hooks.Emit(obs.Event{Type: obs.TypeConsensus, Consensus: &obs.ConsensusInfo{
			Remaining: m, Eigenvalue: res.Value, Iters: res.Products,
			Converged: true, Extracted: extracted,
		}})
		if extracted == 0 {
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

// extract selects the cluster indicated by the dominant eigenvector v of the
// submatrix sub: the variables of v's support — v > 0 and at least
// supportFrac times the largest entry — sorted by eigenvector weight
// (descending, index ascending on ties, which keeps the result
// deterministic), cut at the prefix maximizing the within-prefix
// *co-occurrence* density — the off-diagonal weight per member, W_off(k)/k.
// Excluding the diagonal keeps variables that never co-cluster with
// anything from forming spurious modules (each variable trivially
// co-occurs with itself). Sorting the support alone reads exactly the
// prefix a sort of all of v would: the support is that sort's head.
//
// order is scratch of at least sub.N entries and row of sub.N, all zero on
// entry and on return; the result aliases order.
func extract(sub *matrix.CSR, v []float64, minSize int, supportFrac float64, order []int, row []float64) []int {
	order = support(v, supportFrac, order)
	// Incrementally grow the prefix, tracking within-prefix off-diagonal
	// weight.
	var within float64
	bestK, bestDensity := 0, 0.0
	for k := 1; k <= len(order); k++ {
		i := order[k-1]
		// Row i scattered dense, so the sum visits the prefix in rank
		// order t whatever the columns' order.
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
		density := within / float64(k)
		if k >= minSize && density > bestDensity {
			bestDensity = density
			bestK = k
		}
	}
	return order[:bestK]
}

// support writes into order (capacity ≥ len(v)) and returns the entries i
// of v with v[i] > 0 and v[i] ≥ supportFrac·max v, sorted by value
// descending and index ascending.
func support(v []float64, supportFrac float64, order []int) []int {
	top := 0
	for i, x := range v {
		if x > v[top] {
			top = i
		}
	}
	cut := supportFrac * v[top]
	order = order[:0]
	for i, x := range v {
		if x > 0 && x >= cut {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case v[a] > v[b]:
			return -1
		case v[a] < v[b]:
			return 1
		}
		return cmp.Compare(a, b) // an exact tie of one eigenvector's entries
	})
	return order
}

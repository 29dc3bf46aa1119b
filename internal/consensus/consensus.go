// Package consensus implements the second Lemon-Tree task (§2.2.2): turning
// an ensemble of sampled variable clusterings into a single consensus
// partition via the hypergraph spectral method of Michoel & Nachtergaele
// (2012). The co-occurrence frequency matrix (built by ganesh.CoOccurrence,
// thresholded) is peeled greedily: the dominant (Perron) eigenvector of the
// matrix restricted to the unassigned variables points at the densest
// cluster; its strongest prefix is extracted as a cluster and the process
// repeats until the dominant eigenvalue falls below a cutoff or too few
// variables remain.
//
// The paper measures the task at <0.04 % of total run time and keeps it
// sequential — replicated on all ranks in the parallel pipeline. It is that
// cheap only when a round costs what the thresholded matrix holds, not n²:
// the matrix lives in CSR form (internal/matrix), a round restricts it in
// place, and a power step is one sparse product. DESIGN.md §17 has the
// exactness argument and EXPERIMENTS.md (Figure 5a) the measured share.
package consensus

import (
	"fmt"
	"sort"

	"parsimone/internal/matrix"
	"parsimone/internal/obs"
	"parsimone/internal/rank"
)

// Params configures consensus clustering.
type Params struct {
	// MaxIter caps the power iteration of each peeling round. Values ≤ 0
	// select DefaultMaxIter.
	MaxIter int
}

// DefaultMaxIter is the power-iteration cap when Params.MaxIter is unset.
// Two comparably dense blocks in one connected component make λ₁ ≈ λ₂,
// and plain power iteration then needs thousands of steps to meet tol. The
// cap is measured (DESIGN §17): the most steps any converging round took
// over datagen grids up to 2000×250 at G=3 was 18 915, plus a 5 % margin.
// Raising it changes no converged run: a round that met tol in fewer steps
// takes the same steps and yields the same bits.
const DefaultMaxIter = 20000

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
	// tol is the power iteration's convergence tolerance.
	tol = 1e-10
)

// peeling is what one clustering runs with: the cut-offs above and the
// iteration cap of its Params. The package's tests peel with other
// cut-offs through it.
type peeling struct {
	minClusterSize                  int
	minEigenvalue, supportFrac, tol float64
	maxIter                         int
}

func peelingOf(par Params) peeling {
	pl := peeling{minClusterSize, minEigenvalue, supportFrac, tol, par.MaxIter}
	if pl.maxIter <= 0 {
		pl.maxIter = DefaultMaxIter
	}
	return pl
}

// Cluster extracts consensus clusters from the n×n co-occurrence matrix a
// (row-major, symmetric, non-negative; see ganesh.CoOccurrence). It returns
// the clusters, each sorted ascending, ordered by extraction (densest
// first). Variables not in any returned cluster are not part of any module,
// matching Lemon-Tree's behaviour of dropping weakly co-clustered genes.
//
// A malformed matrix (wrong size, asymmetric, or a NaN, infinite or negative
// cell anywhere — matrix.FromDense's checks) and a power iteration that
// fails to converge within MaxIter both return an error; the clusters
// extracted before a convergence failure are returned alongside it. Earlier
// versions panicked on the former and silently used the unconverged
// eigenpair for the latter, which could peel a garbage cluster without any
// trace of the failure.
//
// a is converted to CSR once and not retained; each round then works on the
// matrix restricted, in place, to the variables still unassigned.
func Cluster(n int, a []float64, par Params) ([][]int, error) {
	return ClusterWithComm(rank.Self(nil), n, a, par)
}

// ClusterWithComm is Cluster as one rank of rc's world runs it. The task is
// replicated, not distributed: every rank computes the same clusters and
// polls its own cancellation signal once per peeling round — the same
// deterministic point everywhere, so no collective is reordered (DESIGN §13)
// — while only rank 0 emits the consensus.extract event of each round, which
// keeps the merged event stream free of p-fold duplicates.
func ClusterWithComm(rc rank.Context, n int, a []float64, par Params) ([][]int, error) {
	return peel(rc, n, a, peelingOf(par))
}

// peel is ClusterWithComm under the cut-offs and cap of pl.
func peel(rc rank.Context, n int, a []float64, pl peeling) ([][]int, error) {
	var hooks *obs.Hooks
	if rc.Comm.Rank() == 0 {
		hooks = rc.Hooks
	}
	sub, err := matrix.FromDense(n, a)
	if err != nil {
		return nil, fmt.Errorf("consensus: %w", err)
	}
	// remaining[local] is the variable behind row `local` of sub.
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	// Scratch shared by all rounds, sliced to the current size.
	x, z := make([]float64, n), make([]float64, n)
	order, relabel := make([]int, n), make([]int, n)
	row := make([]float64, n)
	var clusters [][]int
	for len(remaining) >= pl.minClusterSize {
		rc.Cancel.Check()
		m := len(remaining)
		res := matrix.PowerIteration(sub, pl.maxIter, pl.tol, x[:m], z[:m])
		if !res.Converged {
			hooks.Emit(obs.Event{Type: obs.TypeConsensus, Consensus: &obs.ConsensusInfo{
				Remaining: m, Eigenvalue: res.Value, Iters: res.Iters, Residual: res.Residual,
			}})
			return clusters, fmt.Errorf(
				"consensus: power iteration did not converge within %d iterations on %d remaining variables (eigenvalue estimate %g, tol %g)",
				pl.maxIter, m, res.Value, pl.tol)
		}
		extracted := 0
		var members []int
		if res.Value >= pl.minEigenvalue {
			members = extract(sub, res.Vector, pl.minClusterSize, pl.supportFrac, order[:m], row[:m])
			if len(members) >= pl.minClusterSize {
				extracted = len(members)
			}
		}
		hooks.Emit(obs.Event{Type: obs.TypeConsensus, Consensus: &obs.ConsensusInfo{
			Remaining: m, Eigenvalue: res.Value, Iters: res.Iters,
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
// submatrix sub: variables sorted by eigenvector weight (descending, index
// ascending on ties, which keeps the result deterministic), cut at the
// prefix maximizing the within-prefix *co-occurrence* density — the
// off-diagonal weight per member, W_off(k)/k. Excluding the diagonal keeps
// variables that never co-cluster with anything from forming spurious
// modules (each variable trivially co-occurs with itself).
//
// order and row are scratch of length sub.N, row all zero on entry and on
// return; the result aliases order.
func extract(sub *matrix.CSR, v []float64, minSize int, supportFrac float64, order []int, row []float64) []int {
	n := sub.N
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
	// Incrementally grow the prefix, tracking within-prefix off-diagonal
	// weight.
	var within float64
	bestK, bestDensity := 0, 0.0
	cut := supportFrac * v[order[0]]
	for k := 1; k <= n; k++ {
		i := order[k-1]
		if v[i] <= 0 || v[i] < cut {
			// The Perron vector's support has ended; variables beyond
			// it belong to other clusters or to none.
			break
		}
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

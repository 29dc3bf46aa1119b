// Package tree builds the binary regression-tree structures of the
// module-learning task (§2.2.3 step 1, Algorithm 4 lines 10–18): the leaves
// are an observation clustering sampled by GaneSH, and internal nodes are
// created by Bayesian hierarchical agglomerative clustering — repeatedly
// merging the pair of *consecutive* subtrees whose merged block has the best
// score gain, until a single root remains.
//
// A round's merge scores are partitioned over the world's ranks and pool
// workers and all-gathered, mirroring Algorithm 4, when the round outweighs
// the message (DESIGN §19); a cheaper round is scored in full on every rank.
// Either way every rank merges the first pair of maximal score. The tree is
// identical for every rank count, the sequential one-rank world included,
// because every candidate score is a function of replicated state, compared
// exactly.
package tree

import (
	"fmt"
	"sort"

	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/trace"
)

// Node is a node of a binary regression tree over observations.
type Node struct {
	// Obs is the sorted set of observations at the node.
	Obs []int
	// Stats covers the module's variables × Obs.
	Stats score.Stats
	// Left and Right are nil for leaves.
	Left, Right *Node
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a binary regression tree for one module.
type Tree struct {
	Root *Node
	// Vars are the module's variables the tree was built for.
	Vars []int
}

// InternalNodes returns the non-leaf nodes in pre-order (root first) — the
// canonical enumeration order used by split assignment.
func (t *Tree) InternalNodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		out = append(out, n)
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return out
}

// Leaves returns the leaf nodes in pre-order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return out
}

// CheckInvariants verifies the structural tree invariants: every internal
// node's observation set is the disjoint union of its children's, statistics
// match a recomputation, and the root covers every leaf observation exactly
// once.
func (t *Tree) CheckInvariants(q *score.QData) error {
	var walk func(n *Node) error
	walk = func(n *Node) error {
		var want score.Stats
		for _, x := range t.Vars {
			row := q.Row(x)
			for _, j := range n.Obs {
				want.Add(int64(row[j]))
			}
		}
		if n.Stats != want {
			return fmt.Errorf("tree: node stats %+v, recomputed %+v", n.Stats, want)
		}
		if n.IsLeaf() {
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("tree: internal node with a single child")
		}
		if len(n.Left.Obs)+len(n.Right.Obs) != len(n.Obs) {
			return fmt.Errorf("tree: child observation counts %d+%d != %d",
				len(n.Left.Obs), len(n.Right.Obs), len(n.Obs))
		}
		union := map[int]bool{}
		for _, j := range n.Left.Obs {
			union[j] = true
		}
		for _, j := range n.Right.Obs {
			if union[j] {
				return fmt.Errorf("tree: observation %d in both children", j)
			}
			union[j] = true
		}
		for _, j := range n.Obs {
			if !union[j] {
				return fmt.Errorf("tree: observation %d lost in children", j)
			}
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	return walk(t.Root)
}

// PhaseBuild is the work-recording phase name.
const PhaseBuild = "tree/build"

// mergeCost is the cost of one merge score: three marginal likelihoods.
const mergeCost = 3 * trace.LogMLCost

// leafNodes creates the initial subtree list from an observation clustering
// (canonical order: as given, which snapshots order by smallest member).
func leafNodes(q *score.QData, vars []int, clusters [][]int) []*Node {
	leaves := make([]*Node, len(clusters))
	for i, cl := range clusters {
		obs := append([]int(nil), cl...)
		sort.Ints(obs)
		var s score.Stats
		for _, x := range vars {
			row := q.Row(x)
			for _, j := range obs {
				s.Add(int64(row[j]))
			}
		}
		leaves[i] = &Node{Obs: obs, Stats: s}
	}
	return leaves
}

// mergeGain is the Bayesian merge score of consecutive subtrees a and b.
func mergeGain(kern *score.Kernel, a, b *Node) float64 {
	return kern.LogML(a.Stats.Plus(b.Stats)) - kern.LogML(a.Stats) - kern.LogML(b.Stats)
}

// merge creates the parent of two consecutive subtrees.
func merge(a, b *Node) *Node {
	obs := make([]int, 0, len(a.Obs)+len(b.Obs))
	obs = append(obs, a.Obs...)
	obs = append(obs, b.Obs...)
	sort.Ints(obs)
	return &Node{Obs: obs, Stats: a.Stats.Plus(b.Stats), Left: a, Right: b}
}

// BuildWithComm constructs the regression tree across the ranks of rc's
// world, identically on every rank. Each round scores its pair gains through
// the rank's decision executor (rank.Context.Evaluate, DESIGN §19) — with at
// most ~√m clusters of three logML each, in practice inline on every rank,
// no message moved — and merges the first pair of maximal gain.
func BuildWithComm(rc rank.Context, q *score.QData, kern *score.Kernel, vars []int, clusters [][]int) *Tree {
	return build(rc, q, kern, vars, clusters, mergeCost)
}

// build is BuildWithComm with the cost charged for each pair's gain.
func build(rc rank.Context, q *score.QData, kern *score.Kernel, vars []int, clusters [][]int, pairCost float64) *Tree {
	if len(clusters) == 0 {
		panic("tree: no observation clusters")
	}
	subtrees := leafNodes(q, vars, clusters)
	gains := make([]float64, len(subtrees)-1)
	for len(subtrees) > 1 {
		gains = gains[:len(subtrees)-1]
		rc.Evaluate(PhaseBuild, gains, func(int) float64 { return pairCost }, func(_, lo int, out []float64) {
			for k := range out {
				out[k] = mergeGain(kern, subtrees[lo+k], subtrees[lo+k+1])
			}
		})
		rc.Hooks.Serial(PhaseBuild, float64(len(subtrees[0].Obs))) // merge bookkeeping
		best := 0
		for i, g := range gains {
			if g > gains[best] {
				best = i
			}
		}
		subtrees[best] = merge(subtrees[best], subtrees[best+1])
		subtrees = append(subtrees[:best+1], subtrees[best+2:]...)
	}
	return &Tree{Root: subtrees[0], Vars: append([]int(nil), vars...)}
}

// Build is BuildWithComm on the one-rank world with a kernel of its own for
// pr, recording into wl when non-nil. The kernel has no table: one build
// scores a few hundred blocks, fewer than the len(vars)·M counts a table
// would cost to fill, and every count takes the kernel's Prior.LogML
// fallback, the same bits.
func Build(q *score.QData, pr score.Prior, vars []int, clusters [][]int, wl *trace.Workload) *Tree {
	return BuildWithComm(rank.Self(wl), q, score.NewKernel(pr, 0), vars, clusters)
}

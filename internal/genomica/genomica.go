// Package genomica implements the iterative two-step module-network
// learning algorithm of Segal et al. (2003, 2005) — the GENOMICA approach —
// as a comparison system for the Lemon-Tree pipeline the paper parallelizes.
// The paper's related work (§1.1) reports that Lemon-Tree constructs more
// robust networks than GENOMICA, and its future work (§6) proposes
// extending the parallel components to GENOMICA; this package provides both
// the sequential algorithm and that parallel extension.
//
// The algorithm alternates two steps from a random initial assignment of
// variables to K modules:
//
//   - M-step: for each module, induce a regression-tree CPD top-down —
//     greedily choosing, at each node, the ⟨parent, value⟩ split with the
//     best Bayesian score improvement over the module's block, recursing
//     while the improvement is positive and the node is large enough.
//   - E-step: reassign every variable to the module whose tree-induced
//     observation partition gives its row the best score gain, as a batch
//     (hard EM), which is also what makes the step embarrassingly parallel
//     — the batching strategy of the prior GENOMICA parallelizations (Liu
//     et al. 2005, Jiang et al. 2006).
//
// Iteration stops when an E-step moves no variable or after MaxIters.
package genomica

import (
	"fmt"
	"sort"

	"parsimone/internal/comm"
	"parsimone/internal/prng"
	"parsimone/internal/score"
)

// Params configures a GENOMICA run.
type Params struct {
	// Modules is K, the fixed number of modules. Required (> 0): unlike
	// Lemon-Tree, GENOMICA does not discover the module count.
	Modules int
	// MaxIters bounds the EM iterations. Default 10.
	MaxIters int
	// MinLeaf is the smallest observation set a tree may split. Default 4.
	MinLeaf int
	// MaxDepth bounds tree depth. Default 4.
	MaxDepth int
	// Candidates is the candidate-parent list; nil means all variables.
	Candidates []int
	// ValueGrid is the number of split values tried per parent per node
	// (quantiles of the parent's values at the node). Default 8.
	ValueGrid int
}

func (p Params) withDefaults(n int) (Params, error) {
	if p.Modules <= 0 {
		return p, fmt.Errorf("genomica: Modules must be positive")
	}
	if p.MaxIters == 0 {
		p.MaxIters = 10
	}
	if p.MinLeaf == 0 {
		p.MinLeaf = 4
	}
	if p.MaxDepth == 0 {
		p.MaxDepth = 4
	}
	if p.ValueGrid == 0 {
		p.ValueGrid = 8
	}
	if p.Candidates == nil {
		p.Candidates = make([]int, n)
		for i := range p.Candidates {
			p.Candidates[i] = i
		}
	}
	return p, nil
}

// TreeNode is one node of a GENOMICA regression tree: the observation set,
// the split (Parent == -1 at leaves), and children.
type TreeNode struct {
	Obs         []int
	Parent      int
	Value       int64
	Left, Right *TreeNode
}

// Leaves returns the node's leaf partition in left-to-right order.
func (n *TreeNode) Leaves() []*TreeNode {
	if n.Parent < 0 {
		return []*TreeNode{n}
	}
	return append(n.Left.Leaves(), n.Right.Leaves()...)
}

// Module is one learned GENOMICA module.
type Module struct {
	Vars []int
	Tree *TreeNode
	// Parents are the distinct split variables of the tree, root-first.
	Parents []int
}

// Result is a learned GENOMICA module network.
type Result struct {
	Modules []*Module
	// Assign maps each variable to its module.
	Assign []int
	// Iters is the number of EM iterations performed; Converged reports
	// whether the final E-step moved no variable.
	Iters     int
	Converged bool
	// Score is the final total network score.
	Score float64
}

// rowPartStats returns the statistics of variable x's cells over obs.
func rowPartStats(q *score.QData, x int, obs []int) score.Stats {
	var s score.Stats
	row := q.Row(x)
	for _, j := range obs {
		s.Add(int64(row[j]))
	}
	return s
}

// blockStats returns the statistics of (vars × obs).
func blockStats(q *score.QData, vars, obs []int) score.Stats {
	var s score.Stats
	for _, x := range vars {
		s.Merge(rowPartStats(q, x, obs))
	}
	return s
}

// bestSplit finds the best ⟨parent, value⟩ split of obs for the module's
// variables, returning the improvement (0 if none is positive).
func bestSplit(q *score.QData, pr score.Prior, vars, obs []int, par Params) (parent int, value int64, gain float64) {
	parent = -1
	whole := pr.LogML(blockStats(q, vars, obs))
	vals := make([]int64, len(obs))
	for _, x := range par.Candidates {
		row := q.Row(x)
		for i, j := range obs {
			vals[i] = int64(row[j])
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		// Quantile grid of distinct candidate thresholds.
		tried := map[int64]bool{}
		for t := 1; t <= par.ValueGrid; t++ {
			v := vals[(len(vals)-1)*t/(par.ValueGrid+1)]
			if tried[v] {
				continue
			}
			tried[v] = true
			var le, gt score.Stats
			nle := 0
			for _, xx := range vars {
				rowx := q.Row(xx)
				for _, j := range obs {
					if int64(row[j]) <= v {
						le.Add(int64(rowx[j]))
					} else {
						gt.Add(int64(rowx[j]))
					}
				}
			}
			for _, j := range obs {
				if int64(row[j]) <= v {
					nle++
				}
			}
			if nle == 0 || nle == len(obs) {
				continue
			}
			g := pr.LogML(le) + pr.LogML(gt) - whole
			if g > gain {
				gain, parent, value = g, x, v
			}
		}
	}
	return parent, value, gain
}

// induceTree builds the module's regression tree top-down.
func induceTree(q *score.QData, pr score.Prior, vars, obs []int, depth int, par Params) *TreeNode {
	node := &TreeNode{Obs: obs, Parent: -1}
	if len(vars) == 0 || depth >= par.MaxDepth || len(obs) < 2*par.MinLeaf {
		return node
	}
	parent, value, gain := bestSplit(q, pr, vars, obs, par)
	if parent < 0 || gain <= 0 {
		return node
	}
	var le, gt []int
	row := q.Row(parent)
	for _, j := range obs {
		if int64(row[j]) <= value {
			le = append(le, j)
		} else {
			gt = append(gt, j)
		}
	}
	if len(le) < par.MinLeaf || len(gt) < par.MinLeaf {
		return node
	}
	node.Parent = parent
	node.Value = value
	node.Left = induceTree(q, pr, vars, le, depth+1, par)
	node.Right = induceTree(q, pr, vars, gt, depth+1, par)
	return node
}

// treeParents lists the distinct split variables, pre-order.
func treeParents(n *TreeNode) []int {
	var out []int
	seen := map[int]bool{}
	var walk func(t *TreeNode)
	walk = func(t *TreeNode) {
		if t == nil || t.Parent < 0 {
			return
		}
		if !seen[t.Parent] {
			seen[t.Parent] = true
			out = append(out, t.Parent)
		}
		walk(t.Left)
		walk(t.Right)
	}
	walk(n)
	return out
}

// engine holds the per-run state: the world the M-step and E-step are
// partitioned over, and the data they score.
type engine struct {
	c  *comm.Comm
	q  *score.QData
	pr score.Prior
}

// mStep learns every module's tree, the modules block-partitioned over the
// ranks and the trees all-gathered.
func (e *engine) mStep(members [][]int, par Params) []*TreeNode {
	lo, hi := comm.BlockRange(len(members), e.c.Size(), e.c.Rank())
	local := make([]*TreeNode, 0, hi-lo)
	for k := lo; k < hi; k++ {
		local = append(local, induceTree(e.q, e.pr, members[k], allObs(e.q.M), 0, par))
	}
	return comm.AllGatherv(e.c, local)
}

// eStep returns every variable's best module given the trees, the
// variables block-partitioned over the ranks and the choices all-gathered.
func (e *engine) eStep(members [][]int, treesK []*TreeNode) []int {
	leaves := make([][]*TreeNode, len(treesK))
	leafStats := make([][]score.Stats, len(treesK))
	prepLeafStats(e.q, members, treesK, leaves, leafStats)
	lo, hi := comm.BlockRange(e.q.N, e.c.Size(), e.c.Rank())
	local := make([]int, 0, hi-lo)
	for x := lo; x < hi; x++ {
		local = append(local, bestModuleFor(e.q, e.pr, leaves, leafStats, x))
	}
	return comm.AllGatherv(e.c, local)
}

func (e *engine) run(par Params, g *prng.MRG3) (*Result, error) {
	par, err := par.withDefaults(e.q.N)
	if err != nil {
		return nil, err
	}
	n := e.q.N
	assign := make([]int, n)
	for x := 0; x < n; x++ {
		assign[x] = g.Intn(par.Modules)
	}
	membersOf := func(assign []int) [][]int {
		members := make([][]int, par.Modules)
		for x, k := range assign {
			members[k] = append(members[k], x)
		}
		return members
	}

	res := &Result{}
	var treesK []*TreeNode
	var members [][]int
	for it := 1; it <= par.MaxIters; it++ {
		res.Iters = it
		members = membersOf(assign)
		treesK = e.mStep(members, par)
		next := e.eStep(members, treesK)
		moved := 0
		for x := range next {
			if next[x] != assign[x] {
				moved++
			}
		}
		assign = next
		if moved == 0 {
			res.Converged = true
			break
		}
	}
	// Final M-step on the converged assignment.
	members = membersOf(assign)
	treesK = e.mStep(members, par)

	res.Assign = assign
	var total float64
	for k := 0; k < par.Modules; k++ {
		mod := &Module{Vars: members[k], Tree: treesK[k], Parents: treeParents(treesK[k])}
		res.Modules = append(res.Modules, mod)
		for _, leaf := range treesK[k].Leaves() {
			total += e.pr.LogML(blockStats(e.q, members[k], leaf.Obs))
		}
	}
	res.Score = total
	return res, nil
}

// allObs returns 0..m-1.
func allObs(m int) []int {
	obs := make([]int, m)
	for j := range obs {
		obs[j] = j
	}
	return obs
}

// Learn runs GENOMICA sequentially: LearnParallel on the one-rank world.
func Learn(q *score.QData, pr score.Prior, par Params, g *prng.MRG3) (*Result, error) {
	return LearnParallel(comm.Self(), q, pr, par, g)
}

// LearnParallel runs GENOMICA across c's ranks: the M-step partitions
// modules over ranks (tree induction is independent per module) and the
// E-step partitions variables; both exchange results with all-gathers.
// Every rank must pass a PRNG in the same state; results are identical to
// Learn.
func LearnParallel(c *comm.Comm, q *score.QData, pr score.Prior, par Params, g *prng.MRG3) (*Result, error) {
	return (&engine{c: c, q: q, pr: pr}).run(par, g)
}

// prepLeafStats fills the per-module leaf lists and leaf block statistics.
func prepLeafStats(q *score.QData, members [][]int, treesK []*TreeNode, leaves [][]*TreeNode, leafStats [][]score.Stats) {
	for k, t := range treesK {
		leaves[k] = t.Leaves()
		leafStats[k] = make([]score.Stats, len(leaves[k]))
		for li, leaf := range leaves[k] {
			leafStats[k][li] = blockStats(q, members[k], leaf.Obs)
		}
	}
}

// bestModuleFor scores variable x against every module's leaf partition
// (with x's own contribution removed from its current module's statistics
// being unnecessary under batch hard-EM: all variables are scored against
// the same frozen partition) and returns the arg-max, lowest index on ties.
func bestModuleFor(q *score.QData, pr score.Prior, leaves [][]*TreeNode, leafStats [][]score.Stats, x int) int {
	best, bestGain := 0, 0.0
	for k := range leaves {
		var gain float64
		for li, leaf := range leaves[k] {
			part := rowPartStats(q, x, leaf.Obs)
			gain += pr.LogML(leafStats[k][li].Plus(part)) - pr.LogML(leafStats[k][li])
		}
		if k == 0 || gain > bestGain {
			best, bestGain = k, gain
		}
	}
	return best
}

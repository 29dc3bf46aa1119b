// Conditional probability distributions. A module network's semantics
// (§2.1) is that every variable in a module shares the module's CPD: a
// regression tree whose internal nodes test parent variables against split
// values and whose leaves carry a normal distribution over the module's
// expression. This file turns a learned module (tree structure + assigned
// splits) into an executable CPD, which is what downstream applications —
// prediction, scoring held-out data, condition-specific reasoning — consume.

package module

import (
	"fmt"
	"math"

	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/tree"
)

// CPDNode is one node of an executable regression-tree CPD.
type CPDNode struct {
	// Parent and Value define the test "x_Parent ≤ Value → Left" for
	// internal nodes (Parent is -1 at leaves and at internal nodes that
	// received no split).
	Parent int
	Value  int64
	// Mean and Variance are the leaf's normal distribution (also
	// populated at internal nodes, as the fallback prediction when the
	// node has no usable split).
	Mean, Variance float64
	// Obs is the number of training observations at the node.
	Obs         int
	Left, Right *CPDNode
}

// IsLeaf reports whether the node has no children.
func (n *CPDNode) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// MinSplitMargin is the minimum difference between the children's ≤-side
// fractions for a split to be installed as a routing test.
const MinSplitMargin = 0.3

// CPD is the shared conditional distribution of one module: an ensemble of
// regression trees (one per tree in the module's learned ensemble, matching
// Lemon-Tree's R trees per module), whose predictions are mixture-averaged.
type CPD struct {
	Module int
	Roots  []*CPDNode
}

// BuildCPD assembles the executable CPD of module mi from its regression
// tree ensemble and the weighted splits assigned to the trees' nodes (the
// highest-posterior split per node is installed as the node's test).
// Because a tree's children arise from agglomerative merging, a split
// carries no inherent orientation; the ≤-side is routed to whichever child
// holds the majority of the node's ≤-side training observations, and only
// decisive splits (margin ≥ MinSplitMargin) are installed — an ambiguous
// split would mis-route held-out observations into confidently wrong
// leaves. Nodes without an installed split keep their training distribution
// as a fallback. It returns an error if the module has no trees.
func BuildCPD(mi int, mod *Module, assigned []splits.Assigned, q *score.QData, pr score.Prior) (*CPD, error) {
	if len(mod.Trees) == 0 {
		return nil, fmt.Errorf("module: module %d has no trees", mi)
	}
	cpd := &CPD{Module: mi}
	for ti, t := range mod.Trees {
		internal := t.InternalNodes()
		// Best split per internal node index of this tree.
		best := map[int]splits.Assigned{}
		for _, a := range assigned {
			if a.Module != mi || a.Tree != ti {
				continue
			}
			if cur, ok := best[a.Node]; !ok || a.Posterior > cur.Posterior {
				best[a.Node] = a
			}
		}
		nodeIndex := map[*tree.Node]int{}
		for i, n := range internal {
			nodeIndex[n] = i
		}
		var convert func(n *tree.Node) *CPDNode
		convert = func(n *tree.Node) *CPDNode {
			c := &CPDNode{Parent: -1, Obs: len(n.Obs)}
			c.Mean, c.Variance = pr.Predictive(n.Stats)
			if n.IsLeaf() {
				return c
			}
			c.Left = convert(n.Left)
			c.Right = convert(n.Right)
			if a, ok := best[nodeIndex[n]]; ok {
				leLeft, leRight := 0, 0
				for _, j := range n.Left.Obs {
					if q.At(a.Parent, j) <= a.Value {
						leLeft++
					}
				}
				for _, j := range n.Right.Obs {
					if q.At(a.Parent, j) <= a.Value {
						leRight++
					}
				}
				fracLeft := float64(leLeft) / float64(len(n.Left.Obs))
				fracRight := float64(leRight) / float64(len(n.Right.Obs))
				if math.Abs(fracLeft-fracRight) >= MinSplitMargin {
					c.Parent = a.Parent
					c.Value = a.Value
					if fracRight > fracLeft {
						c.Left, c.Right = c.Right, c.Left
					}
				}
			}
			return c
		}
		cpd.Roots = append(cpd.Roots, convert(t.Root))
	}
	return cpd, nil
}

// Predict routes a full observation vector (quantized, indexed by variable)
// down every tree of the ensemble and returns the mixture distribution of
// the reached leaves — ensemble averaging reduces the variance of any
// single tree's routing.
func (c *CPD) Predict(obs []int64) (mean, variance float64) {
	var sumMean, sumSecond float64
	for _, root := range c.Roots {
		n := root
		for !n.IsLeaf() {
			if n.Parent < 0 {
				break // unsplit internal node: stop with its distribution
			}
			if obs[n.Parent] <= n.Value {
				n = n.Left
			} else {
				n = n.Right
			}
		}
		sumMean += n.Mean
		sumSecond += n.Variance + n.Mean*n.Mean
	}
	k := float64(len(c.Roots))
	mean = sumMean / k
	variance = sumSecond/k - mean*mean
	if variance < 1e-6 {
		variance = 1e-6
	}
	return mean, variance
}

// LogLikelihood returns the Gaussian log-density of value x (quantized)
// under the CPD's prediction for the observation vector.
func (c *CPD) LogLikelihood(obs []int64, x int64) float64 {
	mean, variance := c.Predict(obs)
	d := score.Dequantize(x) - mean
	return -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
}

// BuildCPDs builds one CPD per module from a learning result.
func BuildCPDs(res *Result, q *score.QData, pr score.Prior) ([]*CPD, error) {
	out := make([]*CPD, len(res.Modules))
	for mi, mod := range res.Modules {
		cpd, err := BuildCPD(mi, mod, res.Splits.Weighted, q, pr)
		if err != nil {
			return nil, err
		}
		out[mi] = cpd
	}
	return out, nil
}

// Package module implements the third Lemon-Tree task (§2.2.3, Algorithm 6
// of the paper): for every consensus module, sample observation clusterings
// with GaneSH (variables pinned), build an ensemble of regression trees by
// Bayesian hierarchical merging, assign parent splits to all internal tree
// nodes, and aggregate the chosen splits into parent (regulator) scores.
//
// The parent score of variable X for a module is the average of the
// posteriors of the chosen splits on X, weighted by the number of
// observations at the node each split was assigned to (§2.2.3 step 3). Both
// the posterior-weighted and the uniformly sampled split sets are scored;
// downstream analyses compare the two to assess regulator significance.
package module

import (
	"sort"

	"parsimone/internal/ganesh"
	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/tree"
)

// Params configures module learning.
type Params struct {
	// Tree controls the per-module observation-clustering sampler:
	// Updates−Burnin regression trees are built per module.
	Tree ganesh.ObsParams
	// Splits controls candidate-parent split assignment.
	Splits splits.Params
}

// ParentScore is one scored regulator of a module.
type ParentScore struct {
	// Parent is the variable index; Score its weighted-average posterior;
	// Count the number of chosen splits it appeared in.
	Parent int
	Score  float64
	Count  int
}

// Module is the learned result for one consensus module.
type Module struct {
	// Vars are the module's member variables.
	Vars []int
	// Trees is the learned regression-tree ensemble.
	Trees []*tree.Tree
	// ParentsWeighted scores parents from the posterior-weighted split
	// sample; ParentsUniform from the uniform split sample. Both sorted
	// by descending score (parent index ascending on ties).
	ParentsWeighted []ParentScore
	ParentsUniform  []ParentScore
}

// Result is the outcome of the module-learning task.
type Result struct {
	Modules []*Module
	// Splits is the raw split assignment the parent scores derive from.
	Splits splits.Result
}

// Unit is the self-contained outcome of learning one module: its
// regression-tree ensemble and its assigned splits. Because every module
// consumes its own numbered substream (see LearnWithComm), a Unit depends only on
// the module's index, member variables, and the run configuration — it is
// the granularity of mid-task checkpointing, and a resumed Unit never
// needs recomputing. Parent scores are cheap and derived, so they are
// recomputed rather than persisted.
type Unit struct {
	Module   int
	Vars     []int
	Trees    []*tree.Tree
	Weighted []splits.Assigned
	Uniform  []splits.Assigned
}

// Progress wires module-granular checkpointing and fault injection into
// LearnWithComm. All fields are optional; a nil *Progress disables both.
// Every rank must hold the same Completed set, or ranks would disagree on
// which collectives to enter.
type Progress struct {
	// Completed holds previously learned units by module index; they are
	// reused verbatim instead of being recomputed.
	Completed map[int]*Unit
	// OnStart, when non-nil, runs before module mi is learned (not for
	// resumed units). The fault injector crashes here to model a failure
	// at a module boundary.
	OnStart func(mi int)
	// OnUnit, when non-nil, runs after module mi completes; an error
	// aborts learning (a checkpoint that cannot be persisted).
	OnUnit func(u *Unit) error
}

// LearnWithComm runs the task (Algorithm 6) across the ranks of rc's world,
// scoring through kern (the rank's kernel, whose prior is the score's); the
// result is identical on every rank and for every world size and worker
// count.
func LearnWithComm(rc rank.Context, q *score.QData, kern *score.Kernel, moduleVars [][]int, par Params, g *prng.MRG3, prog *Progress) (*Result, error) {
	res := &Result{}
	for mi, vars := range moduleVars {
		var u *Unit
		if prog != nil {
			u = prog.Completed[mi]
		}
		if u == nil {
			if prog != nil && prog.OnStart != nil {
				prog.OnStart(mi)
			}
			// Each module draws from its own numbered substream, so its
			// result is independent of which earlier modules were
			// recomputed vs resumed — the property that makes mid-task
			// resume bit-exact without persisting PRNG state.
			gi := g.Substream(uint64(mi + 1))
			u = &Unit{Module: mi, Vars: append([]int(nil), vars...)}
			samples, _ := ganesh.SampleObsClusteringsWithComm(rc, q, kern, vars, par.Tree, gi)
			for _, clusters := range samples {
				u.Trees = append(u.Trees, tree.BuildWithComm(rc, q, kern, vars, clusters))
			}
			sp := splits.LearnWithComm(rc, q, kern, [][]int{vars}, [][]*tree.Tree{u.Trees}, par.Splits, gi)
			u.Weighted = renumber(sp.Weighted, mi)
			u.Uniform = renumber(sp.Uniform, mi)
			if prog != nil && prog.OnUnit != nil {
				if err := prog.OnUnit(u); err != nil {
					return nil, err
				}
			}
		}
		res.Modules = append(res.Modules, &Module{Vars: append([]int(nil), u.Vars...), Trees: u.Trees})
		res.Splits.Weighted = append(res.Splits.Weighted, u.Weighted...)
		res.Splits.Uniform = append(res.Splits.Uniform, u.Uniform...)
	}
	for mi, mod := range res.Modules {
		mod.ParentsWeighted = scoreParents(res.Splits.Weighted, mi)
		mod.ParentsUniform = scoreParents(res.Splits.Uniform, mi)
	}
	return res, nil
}

// renumber rewrites the module index of a single-module assignment (always
// 0) to the module's global index.
func renumber(assigned []splits.Assigned, mi int) []splits.Assigned {
	out := append([]splits.Assigned(nil), assigned...)
	for i := range out {
		out[i].Module = mi
	}
	return out
}

// scoreParents aggregates the chosen splits of one module into parent
// scores: Score(X) = Σ posterior·|N| / Σ |N| over splits on X.
func scoreParents(assigned []splits.Assigned, module int) []ParentScore {
	type acc struct {
		num, den float64
		count    int
	}
	byParent := map[int]*acc{}
	for _, a := range assigned {
		if a.Module != module {
			continue
		}
		s := byParent[a.Parent]
		if s == nil {
			s = &acc{}
			byParent[a.Parent] = s
		}
		w := float64(a.NodeObs)
		s.num += a.Posterior * w
		s.den += w
		s.count++
	}
	out := make([]ParentScore, 0, len(byParent))
	for parent, s := range byParent {
		out = append(out, ParentScore{Parent: parent, Score: s.num / s.den, Count: s.count})
	}
	sort.Slice(out, func(i, j int) bool {
		//parsivet:floateq — exact compare of identical-provenance scores; ties break on Parent
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Parent < out[j].Parent
	})
	return out
}

// Package result defines the learned module-network artifact: the module
// set, the scored regulators (parents) per module, the induced module graph
// (§2.1: edge Mⱼ→Mₖ iff some variable assigned to Mⱼ is a parent of Mₖ),
// serialization to XML (the Lemon-Tree interchange format) and JSON, and the
// accuracy metrics used to evaluate recovery against synthetic ground truth.
//
// As in the paper (§2.2 end), the learned graph need not be acyclic;
// EnforceAcyclic provides the post-processing step the paper defers to prior
// work, dropping the lowest-scored edges that close cycles.
package result

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"sort"
)

// Parent is one scored regulator of a module.
type Parent struct {
	Index int     `xml:"index,attr" json:"index"`
	Name  string  `xml:"name,attr" json:"name"`
	Score float64 `xml:"score,attr" json:"score"`
	Count int     `xml:"count,attr" json:"count"`
}

// Module is one learned module.
type Module struct {
	ID             int      `xml:"id,attr" json:"id"`
	Variables      []int    `xml:"variables>var" json:"variables"`
	VariableNames  []string `xml:"-" json:"variableNames,omitempty"`
	Parents        []Parent `xml:"parents>parent" json:"parents"`
	ParentsUniform []Parent `xml:"randomParents>parent" json:"parentsUniform,omitempty"`
}

// Network is a learned module network.
type Network struct {
	XMLName xml.Name `xml:"moduleNetwork" json:"-"`
	// N and M echo the data set shape the network was learned from.
	N       int      `xml:"variables,attr" json:"n"`
	M       int      `xml:"observations,attr" json:"m"`
	Names   []string `xml:"-" json:"names,omitempty"`
	Modules []Module `xml:"module" json:"modules"`
}

// Validate checks structural sanity: variable indices in range and no
// variable in two modules.
func (n *Network) Validate() error {
	seen := map[int]int{}
	for _, mod := range n.Modules {
		for _, v := range mod.Variables {
			if v < 0 || v >= n.N {
				return fmt.Errorf("result: module %d has variable %d outside [0,%d)", mod.ID, v, n.N)
			}
			if prev, dup := seen[v]; dup {
				return fmt.Errorf("result: variable %d in modules %d and %d", v, prev, mod.ID)
			}
			seen[v] = mod.ID
		}
		for _, p := range mod.Parents {
			if p.Index < 0 || p.Index >= n.N {
				return fmt.Errorf("result: module %d parent %d out of range", mod.ID, p.Index)
			}
		}
	}
	return nil
}

// ModuleOf returns the variable → module-ID assignment (−1 for variables in
// no module).
func (n *Network) ModuleOf() []int {
	assign := make([]int, n.N)
	for i := range assign {
		assign[i] = -1
	}
	for _, mod := range n.Modules {
		for _, v := range mod.Variables {
			assign[v] = mod.ID
		}
	}
	return assign
}

// Edge is a directed module-graph edge with the strength of its strongest
// supporting parent.
type Edge struct {
	From, To int
	Score    float64
}

// ModuleGraph returns the module-level DAG edges of §2.1: Mⱼ→Mₖ when a
// variable assigned to Mⱼ is a scored parent of Mₖ. Parents not assigned to
// any module induce no edge. Edges are sorted (From, To).
func (n *Network) ModuleGraph() []Edge {
	assign := n.ModuleOf()
	type key struct{ from, to int }
	best := map[key]float64{}
	for _, mod := range n.Modules {
		for _, p := range mod.Parents {
			from := assign[p.Index]
			if from < 0 || from == mod.ID {
				continue
			}
			k := key{from, mod.ID}
			if p.Score > best[k] {
				best[k] = p.Score
			}
		}
	}
	edges := make([]Edge, 0, len(best))
	for k, s := range best {
		edges = append(edges, Edge{From: k.from, To: k.to, Score: s})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}

// EnforceAcyclic returns the module graph with the smallest-score edges
// removed until no directed cycle remains — the post-processing step the
// paper notes is required to obtain a true MoNet DAG. Edges are considered
// in descending score order and kept only if they close no cycle.
func EnforceAcyclic(edges []Edge, numModules int) []Edge {
	ordered := append([]Edge(nil), edges...)
	sort.Slice(ordered, func(i, j int) bool {
		//parsivet:floateq — exact compare of identical-provenance scores; ties break on (From,To)
		if ordered[i].Score != ordered[j].Score {
			return ordered[i].Score > ordered[j].Score
		}
		if ordered[i].From != ordered[j].From {
			return ordered[i].From < ordered[j].From
		}
		return ordered[i].To < ordered[j].To
	})
	adj := make([][]int, numModules)
	var kept []Edge
	for _, e := range ordered {
		if reaches(adj, e.To, e.From) {
			continue // would close a cycle
		}
		adj[e.From] = append(adj[e.From], e.To)
		kept = append(kept, e)
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].From != kept[j].From {
			return kept[i].From < kept[j].From
		}
		return kept[i].To < kept[j].To
	})
	return kept
}

// reaches reports whether to is reachable from from in adj.
func reaches(adj [][]int, from, to int) bool {
	if from == to {
		return true
	}
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if w == to {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// IsAcyclic reports whether the edge set has no directed cycle.
func IsAcyclic(edges []Edge, numModules int) bool {
	adj := make([][]int, numModules)
	indeg := make([]int, numModules)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	var queue []int
	for v := 0; v < numModules; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	visited := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		visited++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return visited == numModules
}

// WriteXML serializes the network in the Lemon-Tree-style XML interchange
// format.
func (n *Network) WriteXML(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(n); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// ReadXML parses a network written by WriteXML and, like ReadJSON and
// ReadBinary, refuses one that fails checkLoaded.
func ReadXML(r io.Reader) (*Network, error) {
	var n Network
	if err := xml.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if err := checkLoaded(&n); err != nil {
		return nil, err
	}
	return &n, nil
}

// WriteJSON serializes the network as indented JSON.
func (n *Network) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}

// Equal reports whether two networks are identical in modules, membership,
// and parent scores — the paper's cross-implementation verification
// (§5.2.1: "exactly the same network").
func Equal(a, b *Network) bool {
	if a.N != b.N || a.M != b.M || len(a.Modules) != len(b.Modules) {
		return false
	}
	for i := range a.Modules {
		am, bm := a.Modules[i], b.Modules[i]
		if am.ID != bm.ID ||
			!intSliceEqual(am.Variables, bm.Variables) ||
			!parentsEqual(am.Parents, bm.Parents) ||
			!parentsEqual(am.ParentsUniform, bm.ParentsUniform) {
			return false
		}
	}
	return true
}

func intSliceEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func parentsEqual(a, b []Parent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//parsivet:floateq — bit-identity is the point: §5.2.1 "exactly the same network"
		if a[i].Index != b[i].Index || a[i].Score != b[i].Score || a[i].Count != b[i].Count {
			return false
		}
	}
	return true
}

// AdjustedRandIndex measures agreement between two labelings of the same
// items, corrected for chance: 1 is identical partitions, ~0 is random
// agreement. Items labeled −1 in either labeling are excluded (variables
// outside any module).
func AdjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) {
		panic("result: ARI inputs differ in length")
	}
	// Contingency table over included items.
	counts := map[[2]int]int{}
	aCounts := map[int]int{}
	bCounts := map[int]int{}
	n := 0
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			continue
		}
		n++
		counts[[2]int{a[i], b[i]}]++
		aCounts[a[i]]++
		bCounts[b[i]]++
	}
	if n < 2 {
		return 0
	}
	// The pair counts are accumulated in exact integers so the sums are
	// independent of map-iteration order; summing float64 terms here made
	// the ARI vary in the last ULP from run to run.
	choose2 := func(x int) int64 { return int64(x) * int64(x-1) / 2 }
	var sumNij, sumAi, sumBj int64
	//parsivet:ordered — integer sum, associative, order-free
	for _, c := range counts {
		sumNij += choose2(c)
	}
	//parsivet:ordered — integer sum, associative, order-free
	for _, c := range aCounts {
		sumAi += choose2(c)
	}
	//parsivet:ordered — integer sum, associative, order-free
	for _, c := range bCounts {
		sumBj += choose2(c)
	}
	total := choose2(n)
	expected := float64(sumAi) * float64(sumBj) / float64(total)
	maxIndex := float64(sumAi+sumBj) / 2
	//parsivet:floateq — zero-denominator guard for the division below
	if maxIndex == expected {
		return 0
	}
	return (float64(sumNij) - expected) / (maxIndex - expected)
}

// PrecisionAtK returns the fraction of the top-k ranked items that appear in
// the truth set.
func PrecisionAtK(ranked []int, truth map[int]bool, k int) float64 {
	if k <= 0 || len(ranked) == 0 {
		return 0
	}
	k = min(k, len(ranked))
	hits := 0
	for _, v := range ranked[:k] {
		if truth[v] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// MeanAveragePrecision computes the average precision of a ranking against a
// truth set (1.0 when all truth items are ranked first).
func MeanAveragePrecision(ranked []int, truth map[int]bool) float64 {
	if len(truth) == 0 {
		return math.NaN()
	}
	hits := 0
	var sum float64
	for i, v := range ranked {
		if truth[v] {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	if hits == 0 {
		return 0
	}
	return sum / float64(len(truth))
}

package result

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"parsimone/internal/quickseed"
)

func sample() *Network {
	return &Network{
		N: 6, M: 10,
		Names: []string{"R0", "R1", "G2", "G3", "G4", "G5"},
		Modules: []Module{
			{ID: 0, Variables: []int{2, 3}, Parents: []Parent{{Index: 0, Name: "R0", Score: 0.9, Count: 3}}},
			{ID: 1, Variables: []int{4, 5}, Parents: []Parent{
				{Index: 1, Name: "R1", Score: 0.8, Count: 2},
				{Index: 2, Name: "G2", Score: 0.5, Count: 1},
			}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	n := sample()
	n.Modules[0].Variables = []int{2, 9}
	if n.Validate() == nil {
		t.Fatal("out-of-range variable accepted")
	}
	n = sample()
	n.Modules[1].Variables = []int{2, 5}
	if n.Validate() == nil {
		t.Fatal("duplicated variable accepted")
	}
	n = sample()
	n.Modules[0].Parents[0].Index = -1
	if n.Validate() == nil {
		t.Fatal("bad parent accepted")
	}
}

func TestModuleOf(t *testing.T) {
	got := sample().ModuleOf()
	want := []int{-1, -1, 0, 0, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestModuleGraph(t *testing.T) {
	// Module 1 has parent G2 which belongs to module 0 → edge 0→1.
	// Parents R0, R1 belong to no module → no edges.
	edges := sample().ModuleGraph()
	if len(edges) != 1 || edges[0] != (Edge{From: 0, To: 1, Score: 0.5}) {
		t.Fatalf("edges = %v", edges)
	}
}

func TestModuleGraphNoSelfLoops(t *testing.T) {
	n := sample()
	// G3 (module 0) as a parent of module 0 must not create a self edge.
	n.Modules[0].Parents = append(n.Modules[0].Parents, Parent{Index: 3, Score: 0.7})
	for _, e := range n.ModuleGraph() {
		if e.From == e.To {
			t.Fatal("self loop emitted")
		}
	}
}

func TestEnforceAcyclic(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 1, Score: 0.9},
		{From: 1, To: 2, Score: 0.8},
		{From: 2, To: 0, Score: 0.1}, // weakest edge of the cycle
	}
	kept := EnforceAcyclic(edges, 3)
	if !IsAcyclic(kept, 3) {
		t.Fatal("result still cyclic")
	}
	if len(kept) != 2 {
		t.Fatalf("kept %d edges, want 2", len(kept))
	}
	for _, e := range kept {
		if e.From == 2 && e.To == 0 {
			t.Fatal("weakest cycle edge not the one removed")
		}
	}
}

func TestEnforceAcyclicKeepsDAG(t *testing.T) {
	edges := []Edge{{From: 0, To: 1, Score: 1}, {From: 0, To: 2, Score: 1}, {From: 1, To: 2, Score: 1}}
	kept := EnforceAcyclic(edges, 3)
	if len(kept) != 3 {
		t.Fatalf("DAG edges dropped: %v", kept)
	}
}

func TestEnforceAcyclicProperty(t *testing.T) {
	check := func(raw []uint8) bool {
		const k = 5
		var edges []Edge
		for i := 0; i+2 < len(raw) && i < 30; i += 3 {
			edges = append(edges, Edge{
				From:  int(raw[i]) % k,
				To:    int(raw[i+1]) % k,
				Score: float64(raw[i+2]) / 255,
			})
		}
		var clean []Edge
		for _, e := range edges {
			if e.From != e.To {
				clean = append(clean, e)
			}
		}
		return IsAcyclic(EnforceAcyclic(clean, k), k)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestIsAcyclic(t *testing.T) {
	if !IsAcyclic([]Edge{{From: 0, To: 1}, {From: 1, To: 2}}, 3) {
		t.Fatal("chain misclassified")
	}
	if IsAcyclic([]Edge{{From: 0, To: 1}, {From: 1, To: 0}}, 2) {
		t.Fatal("2-cycle missed")
	}
	if !IsAcyclic(nil, 4) {
		t.Fatal("empty graph misclassified")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	n := sample()
	var buf bytes.Buffer
	if err := n.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != n.N || got.M != n.M || len(got.Modules) != 2 {
		t.Fatalf("round trip header: %+v", got)
	}
	if !reflect.DeepEqual(got.Modules[1].Variables, []int{4, 5}) {
		t.Fatalf("variables: %v", got.Modules[1].Variables)
	}
	if got.Modules[1].Parents[0] != n.Modules[1].Parents[0] {
		t.Fatalf("parents: %+v", got.Modules[1].Parents)
	}
}

func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"modules"`)) {
		t.Fatal("JSON missing modules key")
	}
}

func TestEqual(t *testing.T) {
	a, b := sample(), sample()
	if !Equal(a, b) {
		t.Fatal("identical networks not equal")
	}
	b.Modules[1].Parents[0].Score = 0.81
	if Equal(a, b) {
		t.Fatal("differing parent score not detected")
	}
	b = sample()
	b.Modules[0].Variables = []int{2}
	if Equal(a, b) {
		t.Fatal("differing membership not detected")
	}
	b = sample()
	b.Modules = b.Modules[:1]
	if Equal(a, b) {
		t.Fatal("differing module count not detected")
	}
}

func TestAdjustedRandIndexIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if got := AdjustedRandIndex(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI of identical partitions = %v", got)
	}
}

func TestAdjustedRandIndexPermutedLabels(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{5, 5, 9, 9, 7, 7} // same partition, different labels
	if got := AdjustedRandIndex(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI of relabeled partitions = %v", got)
	}
}

func TestAdjustedRandIndexExcludesUnassigned(t *testing.T) {
	a := []int{0, 0, 1, 1, -1, -1}
	b := []int{3, 3, 4, 4, 0, 1}
	if got := AdjustedRandIndex(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI with exclusions = %v", got)
	}
}

func TestAdjustedRandIndexNearZeroForRandom(t *testing.T) {
	// Orthogonal partitions of 8 items.
	a := []int{0, 0, 0, 0, 1, 1, 1, 1}
	b := []int{0, 1, 0, 1, 0, 1, 0, 1}
	if got := AdjustedRandIndex(a, b); math.Abs(got) > 0.3 {
		t.Fatalf("ARI of orthogonal partitions = %v", got)
	}
}

func TestAdjustedRandIndexBounded(t *testing.T) {
	check := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		a := make([]int, len(raw))
		b := make([]int, len(raw))
		for i, r := range raw {
			a[i] = int(r) % 3
			b[i] = int(r>>4) % 3
		}
		ari := AdjustedRandIndex(a, b)
		return ari <= 1.0+1e-12 && !math.IsNaN(ari)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecisionAtK(t *testing.T) {
	truth := map[int]bool{1: true, 3: true}
	ranked := []int{1, 2, 3, 4}
	if got := PrecisionAtK(ranked, truth, 2); got != 0.5 {
		t.Fatalf("P@2 = %v", got)
	}
	if got := PrecisionAtK(ranked, truth, 4); got != 0.5 {
		t.Fatalf("P@4 = %v", got)
	}
	if got := PrecisionAtK(ranked, truth, 10); got != 0.5 {
		t.Fatal("k beyond ranking must clamp")
	}
	if got := PrecisionAtK(nil, truth, 3); got != 0 {
		t.Fatal("empty ranking")
	}
}

func TestMeanAveragePrecision(t *testing.T) {
	truth := map[int]bool{1: true, 2: true}
	if got := MeanAveragePrecision([]int{1, 2, 3}, truth); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect ranking MAP = %v", got)
	}
	if got := MeanAveragePrecision([]int{3, 4}, truth); got != 0 {
		t.Fatalf("miss-all MAP = %v", got)
	}
	if got := MeanAveragePrecision([]int{3, 1}, truth); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("partial MAP = %v, want 0.25", got)
	}
	if !math.IsNaN(MeanAveragePrecision([]int{1}, nil)) {
		t.Fatal("empty truth must be NaN")
	}
}

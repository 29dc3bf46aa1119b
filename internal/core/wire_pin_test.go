package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"parsimone/internal/module"
	"parsimone/internal/result"
	"parsimone/internal/score"
	"parsimone/internal/splits"
	"parsimone/internal/tree"
)

// pinStamp is the stamp a decoded v3 checkpoint of the pinned values
// carries.
var pinStamp = ckptStamp{Version: checkpointVersionBinary, Seed: 0x5EED, GaneshRuns: 3, N: 6, StreamLayout: 2}

// pinUnit is one module unit with a two-leaf tree and both split lists.
func pinUnit() *module.Unit {
	left := &tree.Node{Obs: []int{0, 2}, Stats: score.Stats{N: 4, Sum: -7, SumSq: 31}}
	right := &tree.Node{Obs: []int{1, 3, 4}, Stats: score.Stats{N: 6, Sum: 12, SumSq: 50}}
	root := &tree.Node{Obs: []int{0, 1, 2, 3, 4}, Stats: score.Stats{N: 10, Sum: 5, SumSq: 81}, Left: left, Right: right}
	return &module.Unit{
		Module: 1,
		Vars:   []int{2, 5},
		Trees:  []*tree.Tree{{Root: root, Vars: []int{2, 5}}},
		Weighted: []splits.Assigned{
			{Module: 1, Tree: 0, Node: 0, Parent: 3, Value: -1234, Posterior: 0.75, NodeObs: 5},
			{Module: 1, Tree: 0, Node: 0, Parent: 4, Value: 99, Posterior: 1.0 / 3.0, NodeObs: 5},
		},
		Uniform: []splits.Assigned{
			{Module: 1, Tree: 0, Node: 0, Parent: 0, Value: 7, Posterior: 0.5, NodeObs: 5},
		},
	}
}

// pinNetwork has one module whose names derive from the Names table and
// one with explicit and absent names.
func pinNetwork() *result.Network {
	names := []string{"g0", "g1", "g2", "g3", "g4", "g5"}
	return &result.Network{
		N: 6, M: 5, Names: names,
		Modules: []result.Module{
			{ID: 0, Variables: []int{0, 1, 4}, VariableNames: []string{"g0", "g1", "g4"},
				Parents:        []result.Parent{{Index: 2, Name: "g2", Score: 1.5, Count: 3}, {Index: 5, Name: "", Score: 0.25, Count: 1}},
				ParentsUniform: []result.Parent{{Index: 3, Name: "g3", Score: 0.125, Count: 2}}},
			{ID: 1, Variables: []int{2, 5}, VariableNames: []string{"alpha", "beta"},
				Parents: []result.Parent{{Index: 0, Name: "renamed", Score: -2, Count: 4}}},
		},
	}
}

// TestWireBytesPinned pins the exact encoding of one fixed value of each
// of the four wire file kinds, and that the pinned bytes decode back to
// that value. A codec refactor must leave every digest unmoved; a digest
// that moves is a format change and needs a format version bump.
func TestWireBytesPinned(t *testing.T) {
	ens := &ensemblesCheckpoint{ckptStamp: pinStamp, Ensembles: [][][]int{{{0, 1, 5}, {2, 3, 4}}, {{0, 2, 4}, {1}, {3, 5}}}}
	mods := &modulesCheckpoint{ckptStamp: pinStamp, ModuleVars: [][]int{{0, 1, 4}, {2, 5}, {3}}}
	prog := &progressCheckpoint{ckptStamp: pinStamp, Units: []*module.Unit{pinUnit()}}
	var net bytes.Buffer
	if err := pinNetwork().WriteBinary(&net); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"ensembles", encodeCheckpoint(ens), "333db33432ac7582e38c47e0e834509bbd9d1e1fc7fe62df1fdb20e53ebacf60"},
		{"modules", encodeCheckpoint(mods), "d5dfcad136b542e23a1f667a1a8965ea03efb45d1381c134017068345c528977"},
		{"progress", encodeCheckpoint(prog), "8fd86a3beac71a662ab27de3116835c0cebe749ae5d7fcbbba39bd5f5bf633a1"},
		{"network", net.Bytes(), "f7c03ca822f40eb4de809a0477738ad6a1b8cb34ab12a772a040d7700c2c0284"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s (bytes %x)", tc.name, got, tc.want, tc.data)
		}
	}

	for _, tc := range []struct {
		want, got wireCheckpoint
	}{{ens, &ensemblesCheckpoint{}}, {mods, &modulesCheckpoint{}}, {prog, &progressCheckpoint{}}} {
		if err := decodeCheckpoint("pin", encodeCheckpoint(tc.want), tc.got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s decoded to %+v, want %+v", tc.want.wireKind(), tc.got, tc.want)
		}
	}
	got, err := result.ReadBinary(bytes.NewReader(net.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := pinNetwork(); !reflect.DeepEqual(got, want) {
		t.Errorf("network decoded to %+v, want %+v", got, want)
	}
}

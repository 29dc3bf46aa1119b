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
var pinStamp = ckptStamp{Key: hexDigest("5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed5eed")}

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
		{"ensembles", encodeCheckpoint(ens), "ab56f5a966a61766b3394d335dc097a03053c637114aef08e85e01fb0070a15e"},
		{"modules", encodeCheckpoint(mods), "22ff0ef32138104404b4d9c5d9deb131037749e8b028a1402da3df736b8d8d4c"},
		{"progress", encodeCheckpoint(prog), "490d3542ac8388c4950eb1d378f5f4b97080db96391eb5d713b4ed3af0e74f5d"},
		{"network", net.Bytes(), "fb4f20618163650e70623362c4390429fbfc681d5bcca8c6f90a5997ed70d288"},
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

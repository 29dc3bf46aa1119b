package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parsimone/internal/result"
)

// writeCkpt drops raw bytes where loadCheckpoint will look for them.
func writeCkpt(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// validEnsemblesJSON is a well-formed v2 ensembles checkpoint document.
func validEnsemblesJSON(t *testing.T) []byte {
	t.Helper()
	ck := ensemblesCheckpoint{ckptStamp: ckptStamp{Version: checkpointVersion, Seed: 7, GaneshRuns: 2, N: 4},
		Ensembles: [][][]int{{{0, 1}, {2, 3}}, {{0, 2}, {1, 3}}}}
	data, err := json.Marshal(&ck)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadCheckpointStrictJSON: the v2 JSON reader must reject anything that
// is not exactly one well-formed document with exactly the known fields — a
// truncated file, a misspelled or extra field, and concatenated documents
// (a half-overwritten file) are corruption, not a silent partial resume.
func TestLoadCheckpointStrictJSON(t *testing.T) {
	valid := validEnsemblesJSON(t)
	cases := map[string]struct {
		data []byte
		want string
	}{
		"truncated": {valid[:len(valid)/2], "corrupt checkpoint"},
		"extra field": {[]byte(`{"version":2,"seed":7,"ganeshRuns":2,"n":4,"ensembles":[],"extra":1}`),
			`unknown field "extra"`},
		"misspelled field": {[]byte(`{"version":2,"seed":7,"ganeshRun":2,"n":4,"ensembles":[]}`),
			`unknown field "ganeshRun"`},
		"concatenated documents": {append(append([]byte{}, valid...), valid...),
			"trailing data after the JSON document"},
		"trailing garbage": {append(append([]byte{}, valid...), []byte("xx")...),
			"trailing data after the JSON document"},
		"empty file": {nil, "corrupt checkpoint"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeCkpt(t, dir, ckptEnsembles, tc.data)
			var ck ensemblesCheckpoint
			_, err := loadCheckpoint(dir, ckptEnsembles, &ck)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// Sanity: the valid document itself loads.
	dir := t.TempDir()
	writeCkpt(t, dir, ckptEnsembles, valid)
	var ck ensemblesCheckpoint
	if ok, err := loadCheckpoint(dir, ckptEnsembles, &ck); err != nil || !ok {
		t.Fatalf("valid document rejected: ok=%v err=%v", ok, err)
	}
}

// TestBinaryCheckpointRoundTrip: each checkpoint type survives a v3 binary
// save/load cycle with its payload intact.
func TestBinaryCheckpointRoundTrip(t *testing.T) {
	ens := &ensemblesCheckpoint{ckptStamp: ckptStamp{Version: checkpointVersion, Seed: 11, GaneshRuns: 3, N: 6},
		Ensembles: [][][]int{{{0, 1, 2}, {3, 4, 5}}, {{0, 3}, {1, 2, 4, 5}}, {{5}}}}
	mods := &modulesCheckpoint{ckptStamp: ckptStamp{Version: checkpointVersion, Seed: 11, GaneshRuns: 3, N: 6},
		ModuleVars: [][]int{{0, 2, 4}, {1, 3}, {5}}}
	t.Run("ensembles", func(t *testing.T) {
		dir := t.TempDir()
		if err := saveCheckpoint(dir, ckptEnsembles, ens, true); err != nil {
			t.Fatal(err)
		}
		var got ensemblesCheckpoint
		if ok, err := loadCheckpoint(dir, ckptEnsembles, &got); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if got.Seed != ens.Seed || got.GaneshRuns != ens.GaneshRuns || got.N != ens.N {
			t.Fatalf("header fields lost: %+v", got)
		}
		if !reflect.DeepEqual(got.Ensembles, ens.Ensembles) {
			t.Fatalf("ensembles differ:\n got %v\nwant %v", got.Ensembles, ens.Ensembles)
		}
	})
	t.Run("modules", func(t *testing.T) {
		dir := t.TempDir()
		if err := saveCheckpoint(dir, ckptModules, mods, true); err != nil {
			t.Fatal(err)
		}
		var got modulesCheckpoint
		if ok, err := loadCheckpoint(dir, ckptModules, &got); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if !reflect.DeepEqual(got.ModuleVars, mods.ModuleVars) {
			t.Fatalf("modules differ:\n got %v\nwant %v", got.ModuleVars, mods.ModuleVars)
		}
	})
	t.Run("kind mismatch", func(t *testing.T) {
		// A binary ensembles file loaded as a modules checkpoint must be
		// rejected by kind, not misparsed.
		dir := t.TempDir()
		if err := saveCheckpoint(dir, ckptModules, ens, true); err != nil {
			t.Fatal(err)
		}
		var got modulesCheckpoint
		_, err := loadCheckpoint(dir, ckptModules, &got)
		if err == nil || !strings.Contains(err.Error(), "expected a modules") {
			t.Fatalf("got %v, want a kind-mismatch rejection", err)
		}
	})
}

// TestBinaryCheckpointCorruptFailsCleanly: every truncation of a valid
// binary checkpoint is rejected with an error, never a panic or a silent
// partial resume. One truncation is a well-formed file — the cut that drops
// exactly the trailing layout section — and is refused as unstamped.
func TestBinaryCheckpointCorruptFailsCleanly(t *testing.T) {
	opt := Options{Seed: 11, GaneshRuns: 3}
	ens := &ensemblesCheckpoint{ckptStamp: newStamp(opt, 6), Ensembles: [][][]int{{{0, 1, 2}, {3, 4, 5}}}}
	data := encodeCheckpoint(ens)
	dir := t.TempDir()
	for cut := 0; cut < len(data); cut++ {
		writeCkpt(t, dir, ckptEnsembles, data[:cut])
		var got ensemblesCheckpoint
		_, err := loadCheckpoint(dir, ckptEnsembles, &got)
		if err == nil {
			err = got.check(ckptEnsembles, opt, 6)
		}
		if err == nil {
			// Truncating to zero bytes is "corrupt"; anything that keeps the
			// magic must fail decode or the stamp check.
			t.Fatalf("truncation to %d bytes loaded without error", cut)
		}
	}
}

// TestMixedFormatResume: checkpoints written under one format resume under
// the other. The file names are stable and readers auto-detect by content,
// so flipping Options.BinaryCheckpoints between runs is always safe.
func TestMixedFormatResume(t *testing.T) {
	d, _ := testData(t, 30, 24, 4)
	opt := fastOptions(9)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, flip := range []struct {
		name          string
		first, second bool
	}{{"json_then_binary", false, true}, {"binary_then_json", true, false}} {
		t.Run(flip.name, func(t *testing.T) {
			dir := t.TempDir()
			first := opt
			first.CheckpointDir = dir
			first.BinaryCheckpoints = flip.first
			if _, err := Learn(d, first); err != nil {
				t.Fatal(err)
			}
			second := opt
			second.CheckpointDir = dir
			second.BinaryCheckpoints = flip.second
			got, err := Learn(d, second)
			if err != nil {
				t.Fatalf("resume across formats failed: %v", err)
			}
			if !result.Equal(got.Network, want.Network) {
				t.Fatal("cross-format resume differs from the uninterrupted run")
			}
		})
	}
}

// TestBinaryCheckpointSize pins the tentpole's size claim on the progress
// manifest, the checkpoint that dominates disk traffic (it is rewritten
// after every module): the v3 binary encoding is several times smaller than
// the v2 JSON it replaces.
func TestBinaryCheckpointSize(t *testing.T) {
	d, _ := testData(t, 48, 24, 2)
	sizes := map[bool]int64{}
	for _, binary := range []bool{false, true} {
		opt := fastOptions(3)
		opt.CheckpointDir = t.TempDir()
		opt.BinaryCheckpoints = binary
		if _, err := Learn(d, opt); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(opt.CheckpointDir, ckptProgress))
		if err != nil {
			t.Fatal(err)
		}
		sizes[binary] = fi.Size()
	}
	if ratio := float64(sizes[false]) / float64(sizes[true]); ratio < 5 {
		t.Fatalf("binary progress checkpoint only %.1f× smaller than JSON (%d vs %d bytes), want ≥ 5×",
			ratio, sizes[true], sizes[false])
	}
}

// FuzzWireCheckpoint feeds arbitrary bytes through the full checkpoint read
// path — format auto-detection, wire decoding, strict JSON — for all three
// checkpoint types. The property is simply that nothing panics and errors
// are reported, not swallowed.
func FuzzWireCheckpoint(f *testing.F) {
	ens := &ensemblesCheckpoint{ckptStamp: ckptStamp{Version: checkpointVersion, Seed: 7, GaneshRuns: 2, N: 4},
		Ensembles: [][][]int{{{0, 1}, {2, 3}}}}
	mods := &modulesCheckpoint{ckptStamp: ckptStamp{Version: checkpointVersion, Seed: 7, GaneshRuns: 2, N: 4},
		ModuleVars: [][]int{{0, 1}, {2, 3}}}
	prog := &progressCheckpoint{ckptStamp: ckptStamp{Version: checkpointVersion, Seed: 7, GaneshRuns: 2, N: 4}}
	for _, v := range []wireCheckpoint{ens, mods, prog} {
		f.Add(encodeCheckpoint(v))
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte{0xB7, 'P', 'M', 'W'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeCkpt(t, dir, ckptEnsembles, data)
		var e ensemblesCheckpoint
		_, _ = loadCheckpoint(dir, ckptEnsembles, &e)
		var m modulesCheckpoint
		_, _ = loadCheckpoint(dir, ckptEnsembles, &m)
		var p progressCheckpoint
		_, _ = loadCheckpoint(dir, ckptEnsembles, &p)
	})
}

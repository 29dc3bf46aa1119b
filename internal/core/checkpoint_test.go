package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parsimone/internal/dataset"
	"parsimone/internal/result"
)

// writeCkpt drops raw bytes where loadCheckpoint will look for them.
func writeCkpt(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// testStamp stamps a checkpoint with a fixed well-formed run key.
var testStamp = ckptStamp{Version: checkpointVersion, Key: "db3d213d54d19ca3561b8a0e6e98773cedfbb9318779b0a97854cd1e6b7893c1"}

// validEnsemblesJSON is a well-formed v4 ensembles checkpoint document.
func validEnsemblesJSON(t *testing.T) []byte {
	t.Helper()
	ck := ensemblesCheckpoint{ckptStamp: testStamp,
		Ensembles: [][][]int{{{0, 1}, {2, 3}}, {{0, 2}, {1, 3}}}}
	data, err := json.Marshal(&ck)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadCheckpointStrictJSON: the v4 JSON reader must reject anything that
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
		"extra field": {[]byte(`{"version":4,"key":"k","ensembles":[],"extra":1}`),
			`unknown field "extra"`},
		"misspelled field": {[]byte(`{"version":4,"kee":"k","ensembles":[]}`),
			`unknown field "kee"`},
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
			_, err := loadCheckpoint(dir, ckptEnsembles, testStamp.Key, &ck)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// Sanity: the valid document itself loads.
	dir := t.TempDir()
	writeCkpt(t, dir, ckptEnsembles, valid)
	var ck ensemblesCheckpoint
	if ok, err := loadCheckpoint(dir, ckptEnsembles, testStamp.Key, &ck); err != nil || !ok {
		t.Fatalf("valid document rejected: ok=%v err=%v", ok, err)
	}
}

// TestBinaryCheckpointRoundTrip: each checkpoint type survives a v3 binary
// save/load cycle with its payload intact.
func TestBinaryCheckpointRoundTrip(t *testing.T) {
	ens := &ensemblesCheckpoint{ckptStamp: testStamp,
		Ensembles: [][][]int{{{0, 1, 2}, {3, 4, 5}}, {{0, 3}, {1, 2, 4, 5}}, {{5}}}}
	mods := &modulesCheckpoint{ckptStamp: testStamp,
		ModuleVars: [][]int{{0, 2, 4}, {1, 3}, {5}}}
	t.Run("ensembles", func(t *testing.T) {
		dir := t.TempDir()
		if err := saveCheckpoint(dir, ckptEnsembles, ens, true); err != nil {
			t.Fatal(err)
		}
		var got ensemblesCheckpoint
		if ok, err := loadCheckpoint(dir, ckptEnsembles, testStamp.Key, &got); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if got.Key != ens.Key {
			t.Fatalf("run key lost: %+v", got)
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
		if ok, err := loadCheckpoint(dir, ckptModules, testStamp.Key, &got); err != nil || !ok {
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
		_, err := loadCheckpoint(dir, ckptModules, testStamp.Key, &got)
		if err == nil || !strings.Contains(err.Error(), "expected a modules") {
			t.Fatalf("got %v, want a kind-mismatch rejection", err)
		}
	})
}

// TestBinaryCheckpointCorruptFailsCleanly: every truncation of a valid
// binary checkpoint is rejected with an error, never a panic or a silent
// partial resume — the cut that drops exactly the trailing key section too,
// since that section is required.
func TestBinaryCheckpointCorruptFailsCleanly(t *testing.T) {
	ens := &ensemblesCheckpoint{ckptStamp: testStamp, Ensembles: [][][]int{{{0, 1, 2}, {3, 4, 5}}}}
	data := encodeCheckpoint(ens)
	dir := t.TempDir()
	for cut := 0; cut < len(data); cut++ {
		writeCkpt(t, dir, ckptEnsembles, data[:cut])
		var got ensemblesCheckpoint
		if _, err := loadCheckpoint(dir, ckptEnsembles, testStamp.Key, &got); err == nil {
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
// the v4 JSON it replaces.
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

// TestCheckpointResumesOnlyItsOwnRun writes a checkpoint directory under
// base options, then reruns over a copy of it with one change per row. A
// change to the data or to a result-affecting option is a different run: it
// is refused, with an error naming the file, whichever of the three files is
// present. A change to how the run executes — world shape, worker count,
// split distribution, checkpoint format, supervision, observability — is the
// same run and resumes to the bit-identical network.
func TestCheckpointResumesOnlyItsOwnRun(t *testing.T) {
	d, _ := testData(t, 24, 20, 16)
	base := fastOptions(31)
	want, err := Learn(d, base)
	if err != nil {
		t.Fatal(err)
	}
	written := base
	written.CheckpointDir = t.TempDir()
	if _, err := Learn(d, written); err != nil {
		t.Fatal(err)
	}
	// copyCkpt copies the named checkpoint files into a fresh directory.
	copyCkpt := func(t *testing.T, names ...string) string {
		dir := t.TempDir()
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(written.CheckpointDir, name))
			if err != nil {
				t.Fatal(err)
			}
			writeCkpt(t, dir, name, data)
		}
		return dir
	}
	fewerObs, err := d.Subset(d.N, d.M-1)
	if err != nil {
		t.Fatal(err)
	}
	oneValue := d.Clone()
	oneValue.Values[0] += 0.5

	for _, tc := range []struct {
		name   string
		data   *dataset.Data
		change func(*Options)
	}{
		{"Seed", d, func(o *Options) { o.Seed = 999 }},
		{"GaneshRuns", d, func(o *Options) { o.GaneshRuns = 2 }},
		{"Ganesh.Updates", d, func(o *Options) { o.Ganesh.Updates = 3 }},
		{"Module.Splits.MaxSteps", d, func(o *Options) { o.Module.Splits.MaxSteps = 32 }},
		{"Module.Splits.Candidates", d, func(o *Options) { o.Module.Splits.Candidates = []int{0, 1, 2, 3} }},
		{"CoOccurrenceThreshold", d, func(o *Options) { o.CoOccurrenceThreshold = 0.5 }},
		{"Standardize", d, func(o *Options) { o.Standardize = !o.Standardize }},
		{"Prior.Alpha0", d, func(o *Options) { o.Prior.Alpha0 += 0.5 }},
		{"Subset", fewerObs, func(*Options) {}},
		{"OneValue", oneValue, func(*Options) {}},
	} {
		for _, file := range []string{ckptModules, ckptEnsembles, ckptProgress} {
			t.Run("refused/"+tc.name+"/"+file, func(t *testing.T) {
				opt := base
				tc.change(&opt)
				opt.CheckpointDir = copyCkpt(t, file)
				_, err := Learn(tc.data, opt)
				if err == nil || !strings.Contains(err.Error(), file) {
					t.Fatalf("got %v, want a refusal naming %s", err, file)
				}
			})
		}
	}

	for _, tc := range []struct {
		name   string
		p      int
		change func(*Options)
	}{
		{"Workers", 1, func(o *Options) { o.Workers = 2 }},
		{"p=3", 3, func(*Options) {}},
		{"ScanSelection", 2, func(o *Options) { o.Module.Splits.ScanSelection = true }},
		{"DynamicChunk", 3, func(o *Options) { o.Module.Splits.DynamicChunk = 2 }},
		{"BinaryCheckpoints", 1, func(o *Options) { o.BinaryCheckpoints = !o.BinaryCheckpoints }},
		{"MaxRestarts", 1, func(o *Options) { o.MaxRestarts = 2 }},
		{"Events", 1, func(o *Options) { o.Events = true }},
	} {
		t.Run("resumed/"+tc.name, func(t *testing.T) {
			opt := base
			tc.change(&opt)
			opt.CheckpointDir = copyCkpt(t, ckptEnsembles, ckptModules, ckptProgress)
			got, err := LearnParallel(tc.p, d, opt)
			if err != nil {
				t.Fatalf("resume refused: %v", err)
			}
			if got.Timers.Get(TaskGaneSH) != 0 || got.Timers.Get(TaskConsensus) != 0 {
				t.Fatal("rerun did not resume the completed tasks")
			}
			if !result.Equal(got.Network, want.Network) {
				t.Fatal("resumed network differs from the uninterrupted run")
			}
		})
	}
}

// FuzzWireCheckpoint feeds arbitrary bytes through the full checkpoint read
// path — format auto-detection, wire decoding, strict JSON — for all three
// checkpoint types. The property is simply that nothing panics and errors
// are reported, not swallowed.
func FuzzWireCheckpoint(f *testing.F) {
	ens := &ensemblesCheckpoint{ckptStamp: testStamp, Ensembles: [][][]int{{{0, 1}, {2, 3}}}}
	mods := &modulesCheckpoint{ckptStamp: testStamp, ModuleVars: [][]int{{0, 1}, {2, 3}}}
	prog := &progressCheckpoint{ckptStamp: testStamp}
	for _, v := range []wireCheckpoint{ens, mods, prog} {
		f.Add(encodeCheckpoint(v))
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":4}`))
	f.Add([]byte{0xB7, 'P', 'M', 'W'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeCkpt(t, dir, ckptEnsembles, data)
		var e ensemblesCheckpoint
		_, _ = loadCheckpoint(dir, ckptEnsembles, testStamp.Key, &e)
		var m modulesCheckpoint
		_, _ = loadCheckpoint(dir, ckptEnsembles, testStamp.Key, &m)
		var p progressCheckpoint
		_, _ = loadCheckpoint(dir, ckptEnsembles, testStamp.Key, &p)
	})
}

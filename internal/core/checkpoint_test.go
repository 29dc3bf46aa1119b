package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parsimone/internal/dataset"
	"parsimone/internal/result"
	"parsimone/internal/trace"
)

// writeCkpt drops raw bytes where loadCheckpoint will look for them.
func writeCkpt(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// hexDigest decodes a run key written as 64 hex digits.
func hexDigest(s string) (k digest) {
	if n, err := hex.Decode(k[:], []byte(s)); err != nil || n != len(k) {
		panic("core: bad test run key " + s)
	}
	return k
}

// testStamp stamps a checkpoint with a fixed well-formed run key.
var testStamp = ckptStamp{Key: hexDigest("db3d213d54d19ca3561b8a0e6e98773cedfbb9318779b0a97854cd1e6b7893c1")}

// jsonRefusal is the phrase of the one refusal every non-wire checkpoint
// file gets.
const jsonRefusal = "JSON checkpoints of earlier builds are no longer read"

// wantJSONRefusal asserts err is the non-wire refusal of file: the file is
// named, the delete hint given, and the file is not called corrupt.
func wantJSONRefusal(t *testing.T, err error, file string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s resumed, want the refusal of a JSON checkpoint", file)
	}
	for _, want := range []string{file, jsonRefusal, "delete the checkpoint directory"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("refused as corrupt: %v", err)
	}
}

// earlierJSON is an ensembles checkpoint as earlier builds wrote it: the v4
// JSON document of the stamp and the payload.
const earlierJSON = `{"version":4,"key":"db3d213d54d19ca3561b8a0e6e98773cedfbb9318779b0a97854cd1e6b7893c1","ensembles":[[[0,1],[2,3]],[[0,2],[1,3]]]}`

// TestLoadCheckpointStrictJSON: JSON checkpoints are no longer read, and the
// loader refuses every JSON document alike — one an earlier build wrote
// intact, a truncated one, one with a misspelled or extra field,
// concatenated documents, trailing garbage, an empty file — never as a
// silent partial resume and never as corruption.
func TestLoadCheckpointStrictJSON(t *testing.T) {
	valid := []byte(earlierJSON)
	cases := map[string][]byte{
		"well-formed":            valid,
		"truncated":              valid[:len(valid)/2],
		"extra field":            []byte(`{"version":4,"key":"k","ensembles":[],"extra":1}`),
		"misspelled field":       []byte(`{"version":4,"kee":"k","ensembles":[]}`),
		"concatenated documents": append(append([]byte{}, valid...), valid...),
		"trailing garbage":       append(append([]byte{}, valid...), []byte("xx")...),
		"empty file":             nil,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeCkpt(t, dir, ckptEnsembles, data)
			var ck ensemblesCheckpoint
			ok, err := loadCheckpoint(dir, ckptEnsembles, testStamp.Key, &ck)
			if ok {
				t.Fatal("loaded a JSON checkpoint")
			}
			wantJSONRefusal(t, err, ckptEnsembles)
		})
	}
}

// TestBinaryCheckpointRoundTrip: each checkpoint type survives a save/load
// cycle with its payload intact.
func TestBinaryCheckpointRoundTrip(t *testing.T) {
	ens := &ensemblesCheckpoint{ckptStamp: testStamp,
		Ensembles: [][][]int{{{0, 1, 2}, {3, 4, 5}}, {{0, 3}, {1, 2, 4, 5}}, {{5}}}}
	mods := &modulesCheckpoint{ckptStamp: testStamp,
		ModuleVars: [][]int{{0, 2, 4}, {1, 3}, {5}}}
	t.Run("ensembles", func(t *testing.T) {
		dir := t.TempDir()
		if err := saveNow(dir, ckptEnsembles, ens); err != nil {
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
		if err := saveNow(dir, ckptModules, mods); err != nil {
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
		if err := saveNow(dir, ckptModules, ens); err != nil {
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

// TestMixedFormatResume: a directory holding binary checkpoints beside a
// JSON one, as an earlier build left it when a run switched formats between
// attempts, is refused at the JSON file — never resumed from the binary
// files alone. json_then_binary kept its JSON modules.json, binary_then_json
// rewrote progress.json as JSON.
func TestMixedFormatResume(t *testing.T) {
	d, _ := testData(t, 30, 24, 4)
	opt := fastOptions(9)
	written := t.TempDir()
	opt.CheckpointDir = written
	if _, err := Learn(d, opt); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, json string }{
		{"json_then_binary", ckptModules},
		{"binary_then_json", ckptProgress},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range []string{ckptEnsembles, ckptModules, ckptProgress} {
				data, err := os.ReadFile(filepath.Join(written, name))
				if err != nil {
					t.Fatal(err)
				}
				if name == tc.json {
					data = []byte(fmt.Sprintf(`{"version":4,"key":%q}`, RunKey(d, opt)))
				}
				writeCkpt(t, dir, name, data)
			}
			resumed := opt
			resumed.CheckpointDir = dir
			_, err := Learn(d, resumed)
			wantJSONRefusal(t, err, tc.json)
		})
	}
}

// TestResumedPartitionValidated: a checkpoint stamped with the run's own key
// but holding variable lists that run cannot have written — a variable
// index past the data, one listed twice, a GaneSH run that leaves one out or
// the wrong number of runs — is refused with an error naming the file. The
// refusal is an error the rank returns, so no world is restarted for it.
func TestResumedPartitionValidated(t *testing.T) {
	d, _ := testData(t, 20, 16, 1)
	opt := fastOptions(3)
	n := d.N
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	runs := func(run [][]int) [][][]int {
		out := make([][][]int, opt.GaneshRuns)
		for r := range out {
			out[r] = run
		}
		return out
	}
	for _, tc := range []struct {
		name string
		file string
		v    wireCheckpoint
		want string
	}{
		{"modules_out_of_range", ckptModules,
			&modulesCheckpoint{ModuleVars: [][]int{{0, 1}, {2, n + 400}}}, "outside [0, 20)"},
		{"modules_duplicate", ckptModules,
			&modulesCheckpoint{ModuleVars: [][]int{{0, 1}, {1, 2}}}, "variable 1 twice"},
		{"ensembles_out_of_range", ckptEnsembles,
			&ensemblesCheckpoint{Ensembles: runs([][]int{all, {n}})}, "outside [0, 20)"},
		{"ensembles_duplicate", ckptEnsembles,
			&ensemblesCheckpoint{Ensembles: runs([][]int{all, {3}})}, "variable 3 twice"},
		{"ensembles_missing_variable", ckptEnsembles,
			&ensemblesCheckpoint{Ensembles: runs([][]int{all[1:]})}, "variable 0 unassigned"},
		{"ensembles_run_count", ckptEnsembles,
			&ensemblesCheckpoint{Ensembles: append(runs([][]int{all}), [][]int{all})}, "GaneSH runs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resumed := opt
			resumed.CheckpointDir = t.TempDir()
			resumed.MaxRestarts = 2
			tc.v.stamp().Key = runDigest(d, resumed)
			writeCkpt(t, resumed.CheckpointDir, tc.file, encodeCheckpoint(tc.v))
			var restarts int
			_, err := Supervise(2, d, resumed, func(trace.RecoveryEvent) { restarts++ })
			if err == nil || !strings.Contains(err.Error(), tc.file) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want a refusal naming %s and %q", err, tc.file, tc.want)
			}
			if restarts != 0 {
				t.Fatalf("%d recovery events, want 0: a damaged checkpoint is not a crash", restarts)
			}
		})
	}
}

// TestCheckpointResumesOnlyItsOwnRun writes a checkpoint directory under
// base options, then reruns over a copy of it with one change per row. A
// change to the data or to a result-affecting option is a different run: it
// is refused, with an error naming the file, whichever of the three files is
// present. A change to how the run executes — world shape, worker count,
// split distribution, supervision, observability, and the deprecated
// BinaryCheckpoints and ScanSelection switches, which are ignored — is the
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
// path — the refusal of a non-wire file, the wire framing and each payload
// codec — for all three checkpoint types. The property is simply that
// nothing panics and errors are reported, not swallowed. The JSON files in
// the seed corpus stay as non-wire inputs.
func FuzzWireCheckpoint(f *testing.F) {
	ens := &ensemblesCheckpoint{ckptStamp: testStamp, Ensembles: [][][]int{{{0, 1}, {2, 3}}}}
	mods := &modulesCheckpoint{ckptStamp: testStamp, ModuleVars: [][]int{{0, 1}, {2, 3}}}
	prog := &progressCheckpoint{ckptStamp: testStamp}
	for _, v := range []wireCheckpoint{ens, mods, prog} {
		data := encodeCheckpoint(v)
		f.Add(data)
		// The same file at the next wire version, refused by version.
		next := bytes.Clone(data)
		next[4]++
		f.Add(next)
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

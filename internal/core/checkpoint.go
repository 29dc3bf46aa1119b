// Checkpointing. The paper's pipeline writes intermediate artifacts between
// tasks (§5.3: "any intermediate files and the final MoNet structure ...
// are written to the disk by the process with rank 0"), which lets an
// interrupted multi-day run resume at a task boundary. Because every task
// draws from its own numbered PRNG substream, resuming from a checkpoint
// reproduces *exactly* the network an uninterrupted run would learn.
//
// Three files live in Options.CheckpointDir: ensembles.json (task 1),
// modules.json (task 2), and progress.json — the per-module manifest that
// lets a crash inside module learning (>90 % of runtime, §5.2) resume at
// the last completed module instead of the last task boundary.

package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"parsimone/internal/module"
	"parsimone/internal/wire"
)

// checkpoint file names inside Options.CheckpointDir. The names are stable
// across formats: a v3 binary checkpoint still lives in ensembles.json etc.,
// and readers detect the format by content (wire magic vs JSON), so a
// directory written by either format resumes under either setting.
const (
	ckptEnsembles = "ensembles.json"
	ckptModules   = "modules.json"
	ckptProgress  = "progress.json"
)

// Checkpoint format versions. v4 is the JSON format; v3 is the binary wire
// format (internal/wire, DESIGN §12) written when Options.BinaryCheckpoints
// is set. The read path accepts both, auto-detected by magic. Files of any
// other version, or of another wire version, are refused; there is no
// migration — delete the directory and re-learn.
const (
	checkpointVersion       = 4
	checkpointVersionBinary = 3
)

// ckptStamp is the head of every checkpoint file: the format version and the
// key of the run that wrote it (RunKey). The key hashes the data, every
// result-affecting option and the PRNG stream layout, so a checkpoint
// resumes only the run that wrote it.
type ckptStamp struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
}

func (st *ckptStamp) stamp() *ckptStamp { return st }

// check refuses a checkpoint another run wrote: one of other data, other
// result-affecting options or another stream layout.
func (st *ckptStamp) check(name, key string) error {
	if st.Key != key {
		return fmt.Errorf("core: checkpoint %s was written by a different configuration (data, result-affecting options or stream layout) — delete the checkpoint directory to re-learn", name)
	}
	return nil
}

// ensemblesCheckpoint persists the GaneSH task's output.
type ensemblesCheckpoint struct {
	ckptStamp
	Ensembles [][][]int `json:"ensembles"`
}

// modulesCheckpoint persists the consensus task's output.
type modulesCheckpoint struct {
	ckptStamp
	ModuleVars [][]int `json:"moduleVars"`
}

// progressCheckpoint persists the per-module units completed so far inside
// the module-learning task. Each unit is independent (its own numbered PRNG
// substream), so any subset can be resumed and the remainder recomputed
// bit-identically.
type progressCheckpoint struct {
	ckptStamp
	Units []*module.Unit `json:"units"`
}

// checkVersion rejects JSON checkpoint files written in another format.
// A file where the version field is simply absent (nil) predates versioning
// and is reported as such, not as the misleading "format v0".
func checkVersion(name string, got *int) error {
	if got == nil {
		return fmt.Errorf("core: checkpoint %s has no version field (pre-versioning format), expected v%d — delete the checkpoint directory to re-learn",
			name, checkpointVersion)
	}
	if *got != checkpointVersion {
		return fmt.Errorf("core: checkpoint %s is format v%d, expected v%d — delete the checkpoint directory to re-learn",
			name, *got, checkpointVersion)
	}
	return nil
}

// wireCheckpoint is the codec contract each checkpoint type implements for
// the v3 binary format: its kind, its stamp (the run key section), and its
// payload.
type wireCheckpoint interface {
	wireKind() wire.Kind
	stamp() *ckptStamp
	encodePayload(e *wire.Encoder)
	decodePayload(d *wire.Decoder)
}

// loadCheckpoint reads a checkpoint file into v and refuses it unless the
// run with this key wrote it; a missing file returns (false, nil). The
// format is auto-detected by content: a v3 binary file starts with the wire
// magic, anything else is v4 JSON.
func loadCheckpoint(dir, name, key string, v wireCheckpoint) (bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		if wire.IsWire(data) {
			err = decodeCheckpoint(name, data, v)
		} else {
			err = decodeJSONCheckpoint(name, data, v)
		}
	}
	if err == nil {
		err = v.stamp().check(name, key)
	}
	return err == nil, err
}

// decodeJSONCheckpoint parses the v4 JSON file data, found under name, into
// v. The version is checked first, so a file of another format version is
// refused as that version; the decode is then strict: unknown or misspelled
// fields and trailing garbage (a concatenated or half-overwritten file) are
// corruption, never a silent partial resume.
func decodeJSONCheckpoint(name string, data []byte, v wireCheckpoint) error {
	// A pointer tells an absent version field from an explicit 0.
	var probe struct {
		Version *int `json:"version"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err != nil {
		return fmt.Errorf("core: corrupt checkpoint %s: %w", name, err)
	}
	if err := checkVersion(name, probe.Version); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("core: corrupt checkpoint %s: %w", name, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("core: corrupt checkpoint %s: trailing data after the JSON document", name)
	}
	return nil
}

// saveCheckpoint writes v atomically and durably: create the directory,
// write a temp file, fsync it, rename over the final name, and fsync the
// directory. Without the fsyncs a crash can leave a renamed-but-truncated
// file that loadCheckpoint rejects as corrupt on resume; a stale .tmp from
// an earlier crash is simply overwritten. With binary set the v3 wire
// format is written instead of v4 JSON; both resume interchangeably.
func saveCheckpoint(dir, name string, v wireCheckpoint, binary bool) error {
	var data []byte
	if binary {
		data = encodeCheckpoint(v)
	} else {
		var err error
		if data, err = json.Marshal(v); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadEnsembles returns the checkpointed GaneSH ensembles if present and
// written by the run with this key.
func loadEnsembles(dir, key string) ([][][]int, error) {
	var ck ensemblesCheckpoint
	if ok, err := loadCheckpoint(dir, ckptEnsembles, key, &ck); err != nil || !ok {
		return nil, err
	}
	return ck.Ensembles, nil
}

// loadModules returns the checkpointed consensus modules if present and
// written by the run with this key.
func loadModules(dir, key string) ([][]int, bool, error) {
	var ck modulesCheckpoint
	if ok, err := loadCheckpoint(dir, ckptModules, key, &ck); err != nil || !ok {
		return nil, false, err
	}
	return ck.ModuleVars, true, nil
}

// loadProgress returns the completed module units if a progress manifest is
// present, written by the run with this key and consistent with the
// current module memberships. A unit whose module index or variables do not
// match the consensus result indicates a foreign manifest and is an error,
// not a silent partial resume.
func loadProgress(dir, key string, moduleVars [][]int) (map[int]*module.Unit, error) {
	var ck progressCheckpoint
	if ok, err := loadCheckpoint(dir, ckptProgress, key, &ck); err != nil || !ok {
		return nil, err
	}
	units := make(map[int]*module.Unit, len(ck.Units))
	for _, u := range ck.Units {
		if u == nil {
			return nil, fmt.Errorf("core: checkpoint %s has a null unit", ckptProgress)
		}
		if u.Module < 0 || u.Module >= len(moduleVars) {
			return nil, fmt.Errorf("core: checkpoint %s references module %d of %d",
				ckptProgress, u.Module, len(moduleVars))
		}
		if !slices.Equal(u.Vars, moduleVars[u.Module]) {
			return nil, fmt.Errorf("core: checkpoint %s unit for module %d does not match the consensus module members",
				ckptProgress, u.Module)
		}
		if _, dup := units[u.Module]; dup {
			return nil, fmt.Errorf("core: checkpoint %s has duplicate units for module %d", ckptProgress, u.Module)
		}
		units[u.Module] = u
	}
	return units, nil
}

// saveProgress rewrites the whole progress manifest (units sorted by module
// index) atomically via saveCheckpoint. Manifests are small relative to the
// work a module represents, so whole-file rewrites keep the format trivial.
func saveProgress(dir string, st ckptStamp, units map[int]*module.Unit, binary bool) error {
	ck := progressCheckpoint{ckptStamp: st}
	for _, u := range units {
		ck.Units = append(ck.Units, u)
	}
	sort.Slice(ck.Units, func(i, j int) bool { return ck.Units[i].Module < ck.Units[j].Module })
	return saveCheckpoint(dir, ckptProgress, &ck, binary)
}

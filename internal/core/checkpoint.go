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
// the last completed module instead of the last task boundary. Rank 0
// writes them through the run's checkpoint writer (checkpoint_writer.go).

package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"parsimone/internal/module"
	"parsimone/internal/wire"
)

// checkpoint file names inside Options.CheckpointDir. Every file is a binary
// wire file (checkpoint_wire.go, DESIGN §12). The names keep the suffix of
// the JSON checkpoints earlier builds wrote, so an old directory's files are
// found and refused instead of passed over while the run silently starts
// again.
const (
	ckptEnsembles = "ensembles.json"
	ckptModules   = "modules.json"
	ckptProgress  = "progress.json"
)

// ckptStamp is the run key section of every checkpoint file: the digest of
// the run that wrote it (RunKey). The key hashes the data, every
// result-affecting option and the PRNG stream layout, so a checkpoint
// resumes only the run that wrote it. The format version is the wire
// header's.
type ckptStamp struct {
	Key digest
}

func (st *ckptStamp) stamp() *ckptStamp { return st }

// check refuses a checkpoint another run wrote: one of other data, other
// result-affecting options or another stream layout.
func (st *ckptStamp) check(name string, key digest) error {
	if st.Key != key {
		return fmt.Errorf("core: checkpoint %s was written by a different configuration (data, result-affecting options or stream layout) — delete the checkpoint directory to re-learn", name)
	}
	return nil
}

// ensemblesCheckpoint persists the GaneSH task's output.
type ensemblesCheckpoint struct {
	ckptStamp
	Ensembles [][][]int
}

// modulesCheckpoint persists the consensus task's output.
type modulesCheckpoint struct {
	ckptStamp
	ModuleVars [][]int
}

// progressCheckpoint persists the per-module units completed so far inside
// the module-learning task. Each unit is independent (its own numbered PRNG
// substream), so any subset can be resumed and the remainder recomputed
// bit-identically.
type progressCheckpoint struct {
	ckptStamp
	Units []*module.Unit
}

// wireCheckpoint is the codec contract each checkpoint type implements: its
// kind, its stamp (the run key section), and its payload.
type wireCheckpoint interface {
	wireKind() wire.Kind
	stamp() *ckptStamp
	encodePayload(e *wire.Encoder)
	decodePayload(d *wire.Decoder)
}

// loadCheckpoint reads a checkpoint file into v and refuses it unless the
// run with this key wrote it; a missing file returns (false, nil).
func loadCheckpoint(dir, name string, key digest, v wireCheckpoint) (bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		err = decodeCheckpoint(name, data, v)
	}
	if err == nil {
		err = v.stamp().check(name, key)
	}
	return err == nil, err
}

// checkVars refuses variable lists a run over n variables cannot have
// written: an index outside [0, n) or one listed twice, and with cover set
// also an index listed nowhere. The file carries the run's own key, so such
// lists mean a damaged file, and learning from them would index past the
// data.
func checkVars(name string, sets [][]int, n int, cover bool) error {
	seen := make([]bool, n)
	for _, set := range sets {
		for _, x := range set {
			if x < 0 || x >= n {
				return fmt.Errorf("core: checkpoint %s lists variable %d, outside [0, %d)", name, x, n)
			}
			if seen[x] {
				return fmt.Errorf("core: checkpoint %s lists variable %d twice", name, x)
			}
			seen[x] = true
		}
	}
	if x := slices.Index(seen, false); cover && x >= 0 {
		return fmt.Errorf("core: checkpoint %s leaves variable %d unassigned", name, x)
	}
	return nil
}

// loadEnsembles returns the checkpointed GaneSH ensembles if present and
// written by the run with this key: one partition of the n variables per
// GaneSH run, as snapshotOf writes them.
func loadEnsembles(dir string, key digest, runs, n int) ([][][]int, error) {
	var ck ensemblesCheckpoint
	if ok, err := loadCheckpoint(dir, ckptEnsembles, key, &ck); err != nil || !ok {
		return nil, err
	}
	if len(ck.Ensembles) != runs {
		return nil, fmt.Errorf("core: checkpoint %s holds %d GaneSH runs, want %d", ckptEnsembles, len(ck.Ensembles), runs)
	}
	for _, run := range ck.Ensembles {
		if err := checkVars(ckptEnsembles, run, n, true); err != nil {
			return nil, err
		}
	}
	return ck.Ensembles, nil
}

// loadModules returns the checkpointed consensus modules if present and
// written by the run with this key; each of the n variables is in at most
// one module.
func loadModules(dir string, key digest, n int) ([][]int, bool, error) {
	var ck modulesCheckpoint
	if ok, err := loadCheckpoint(dir, ckptModules, key, &ck); err != nil || !ok {
		return nil, false, err
	}
	if err := checkVars(ckptModules, ck.ModuleVars, n, false); err != nil {
		return nil, false, err
	}
	return ck.ModuleVars, true, nil
}

// loadProgress returns the completed module units if a progress manifest is
// present, written by the run with this key and consistent with the
// current module memberships. A unit whose module index or variables do not
// match the consensus result indicates a foreign manifest and is an error,
// not a silent partial resume.
func loadProgress(dir string, key digest, moduleVars [][]int) (map[int]*module.Unit, error) {
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

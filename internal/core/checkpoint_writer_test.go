package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"parsimone/internal/module"
	"parsimone/internal/trace"
)

// saveNow writes v as file name of dir through a checkpoint writer and waits
// until it is durable.
func saveNow(dir, name string, v wireCheckpoint) error {
	w, err := startCheckpointWriter(dir)
	if err != nil {
		return err
	}
	err = w.queueCheckpoint(name, v)
	if cerr := w.closeCheckpoints(); err == nil {
		err = cerr
	}
	return err
}

// writerGoroutines counts the checkpoint writer goroutines alive in the
// process.
func writerGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*checkpointWriter).writeCheckpoints(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// wantWritersExited fails t unless every checkpoint writer goroutine exits
// soon: closeCheckpoints returns once the goroutine has closed its done
// channel, a few instructions before the goroutine is gone.
func wantWritersExited(t *testing.T) {
	t.Helper()
	for tries := 0; writerGoroutines() > 0; tries++ {
		if tries == 1000 {
			t.Fatalf("%d checkpoint writer goroutines still alive after the run returned", writerGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointWriterKeepsLastSave queues 200 manifest saves faster than
// they can be written: the writer coalesces them, and after close the file
// holds the last save's bytes.
func TestCheckpointWriterKeepsLastSave(t *testing.T) {
	dir := t.TempDir()
	w, err := startCheckpointWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A failed check must not leak the goroutine into later tests; a second
	// close returns at once.
	t.Cleanup(func() { _ = w.closeCheckpoints() })
	units := map[int]*module.Unit{}
	last := progressCheckpoint{ckptStamp: testStamp}
	for k := 0; k < 200; k++ {
		units[k] = &module.Unit{Module: k, Vars: []int{k}}
		last.Units = append(last.Units, units[k])
		if err := w.queueProgress(testStamp, units); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.closeCheckpoints(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ckptProgress))
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeCheckpoint(&last); !bytes.Equal(got, want) {
		t.Fatalf("manifest holds %d bytes that are not the last save's %d", len(got), len(want))
	}
	wantNoTemp(t, dir)
	wantWritersExited(t)
}

// TestCheckpointWriterErrorSticky: a write that fails on the writer
// goroutine is returned by the next queue and by close, and the files
// queued behind it are dropped, as the run stops at the failed save.
func TestCheckpointWriterErrorSticky(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	w, err := startCheckpointWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.closeCheckpoints() })
	// A directory gone under the writer fails every write, even as root.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	mods := &modulesCheckpoint{ckptStamp: testStamp, ModuleVars: [][]int{{0, 1}}}
	if err := w.queueCheckpoint(ckptModules, mods); err != nil {
		t.Fatalf("the first queue returned %v before anything was written", err)
	}
	var qerr error
	for tries := 0; qerr == nil && tries < 1000; tries++ {
		time.Sleep(time.Millisecond)
		qerr = w.queueCheckpoint(ckptModules, mods)
	}
	if qerr == nil || !strings.Contains(qerr.Error(), dir) {
		t.Fatalf("queue after a failed write returned %v, want the write error naming %s", qerr, dir)
	}
	if cerr := w.closeCheckpoints(); !errors.Is(cerr, qerr) {
		t.Fatalf("close returned %v, want the first write error %v", cerr, qerr)
	}
	wantWritersExited(t)
}

// TestCheckpointWriteErrorReturned: a checkpoint directory that cannot be
// created — placed below a regular file, which fails even as root — is an
// error the run returns, naming the path. It is not a crash, so no world is
// restarted and the restart budget is not spent, and no writer goroutine
// outlives the run.
func TestCheckpointWriteErrorReturned(t *testing.T) {
	d, opt, _ := recoveryFixture(t)
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "file")
			if err := os.WriteFile(file, []byte("not a directory"), 0o644); err != nil {
				t.Fatal(err)
			}
			run := opt
			run.CheckpointDir = filepath.Join(file, "ckpt")
			run.MaxRestarts = 2
			out, err := Supervise(p, d, run, func(ev trace.RecoveryEvent) {
				t.Errorf("between called with %v for a checkpoint that cannot be written", ev)
			})
			if err == nil || out != nil || !strings.Contains(err.Error(), run.CheckpointDir) {
				t.Fatalf("got (%v, %v), want an error naming %s", out != nil, err, run.CheckpointDir)
			}
			wantWritersExited(t)
		})
	}
}

// wantNoTemp fails t if dir holds a checkpoint temp file.
func wantNoTemp(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(tmps) > 0 {
		t.Fatalf("temp files %v left in %s (err %v)", tmps, dir, err)
	}
}

// wantCheckpointDir checks the directory a run left once it returned: no
// temp file, every durable checkpoint decodes under the run's key, and the
// manifest holds exactly the first k of the complete run's units (none and
// no file for k = 0).
func wantCheckpointDir(t *testing.T, dir string, key digest, complete []*module.Unit, k int) {
	t.Helper()
	wantNoTemp(t, dir)
	for _, name := range DurableCheckpoints(dir) {
		var v wireCheckpoint
		switch name {
		case ckptEnsembles:
			v = &ensemblesCheckpoint{}
		case ckptModules:
			v = &modulesCheckpoint{}
		case ckptProgress:
			v = &progressCheckpoint{}
		}
		if ok, err := loadCheckpoint(dir, name, key, v); !ok || err != nil {
			t.Fatalf("%s does not decode under the run's key: ok=%v err=%v", name, ok, err)
		}
	}
	var ck progressCheckpoint
	ok, err := loadCheckpoint(dir, ckptProgress, key, &ck)
	if err != nil || ok != (k > 0) {
		t.Fatalf("manifest present=%v (err %v), want present=%v", ok, err, k > 0)
	}
	if k > 0 && !reflect.DeepEqual(ck.Units, complete[:k]) {
		got := make([]int, len(ck.Units))
		for i, u := range ck.Units {
			got[i] = u.Module
		}
		t.Fatalf("manifest holds the units of modules %v, want the first %d of the complete run's", got, k)
	}
}

// TestCheckpointDirAtReturn: once a run returns — completed, cancelled at a
// module edge, or crashed at a module failpoint with no restart left — its
// directory holds what a synchronous writer would have left: no temp file,
// every listed checkpoint decodable under the run's key, and a manifest of
// exactly the units finished before the stop.
func TestCheckpointDirAtReturn(t *testing.T) {
	f, checks := cancelFixture(t)
	key := runDigest(f.data, f.opt)
	nm := len(f.want.Modules)

	var complete []*module.Unit
	t.Run("clean", func(t *testing.T) {
		run := f.opt
		run.CheckpointDir = t.TempDir()
		if _, err := Learn(f.data, run); err != nil {
			t.Fatal(err)
		}
		if got := DurableCheckpoints(run.CheckpointDir); len(got) != 3 {
			t.Fatalf("a completed run left %v, want all three checkpoints", got)
		}
		var ck progressCheckpoint
		if _, err := loadCheckpoint(run.CheckpointDir, ckptProgress, key, &ck); err != nil {
			t.Fatal(err)
		}
		complete = ck.Units
		if len(complete) != nm {
			t.Fatalf("a completed run's manifest holds %d units, want %d", len(complete), nm)
		}
		wantCheckpointDir(t, run.CheckpointDir, key, complete, nm)
	})
	if complete == nil {
		t.FailNow()
	}

	// resumedChecks[k] is the cancellation checks a run polls resuming from
	// a directory that holds the first k units.
	resumedChecks := make([]int64, nm)
	for k := 0; k < nm; k++ {
		t.Run(fmt.Sprintf("failpoint_module%d", k), func(t *testing.T) {
			for _, p := range []int{1, 2} {
				run := f.opt
				run.CheckpointDir = t.TempDir()
				run.Inject = &FaultSpec{Task: fmt.Sprintf("module:%d", k), Rank: 0}
				if _, err := LearnParallel(p, f.data, run); err == nil {
					t.Fatalf("p=%d: injected crash returned no error", p)
				}
				wantCheckpointDir(t, run.CheckpointDir, key, complete, k)
				resumed := f.opt
				resumed.CheckpointDir = run.CheckpointDir
				out, err := LearnParallel(p, f.data, resumed)
				if err != nil {
					t.Fatalf("p=%d: resume: %v", p, err)
				}
				resumedChecks[k] = out.CancelChecks
			}
		})
	}

	// The cancel matrix addresses checks by index. A resume from the first k
	// units polls the run entry and the two task boundaries, then the checks
	// of modules k onwards, so module k's edge — the first check of its
	// OnStart — is check checks − resumedChecks[k] + 4 of a clean run. The
	// check before an edge is still inside the previous module, so the pair
	// pins the manifest to the units finished before the stop.
	for k := 0; k < nm; k++ {
		edge := checks - resumedChecks[k] + 4
		for _, at := range []int64{edge - 1, edge} {
			units := k
			if at < edge {
				units = max(k-1, 0)
			}
			t.Run(fmt.Sprintf("cancel_module%d_check%d", k, at), func(t *testing.T) {
				run := f.opt
				run.CheckpointDir = t.TempDir()
				run.Inject = &FaultSpec{CancelAt: at, Rank: 0}
				_, err := Learn(f.data, run)
				var ce *CancelledError
				if !errors.As(err, &ce) {
					t.Fatalf("got %v, want a *CancelledError", err)
				}
				if !reflect.DeepEqual(ce.Checkpoints, DurableCheckpoints(run.CheckpointDir)) {
					t.Fatalf("CancelledError lists %v, the directory holds %v", ce.Checkpoints, DurableCheckpoints(run.CheckpointDir))
				}
				wantCheckpointDir(t, run.CheckpointDir, key, complete, units)
			})
		}
	}
	wantWritersExited(t)
}

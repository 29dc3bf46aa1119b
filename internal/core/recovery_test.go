package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsimone/internal/comm"
	"parsimone/internal/dataset"
	"parsimone/internal/module"
	"parsimone/internal/result"
	"parsimone/internal/wire"
)

// recoveryFixture is shared by the recovery tests: a data set whose consensus
// produces at least three modules (so the module failpoints 0, mid, last are
// distinct), plus the uninterrupted reference network.
func recoveryFixture(t *testing.T) (*dataset.Data, Options, *Output) {
	t.Helper()
	d, _ := testData(t, 48, 24, 2)
	opt := fastOptions(3)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if nm := len(want.Network.Modules); nm < 3 {
		t.Fatalf("fixture produced %d modules, need ≥ 3 for distinct module failpoints", nm)
	}
	return d, opt, want
}

// dynamicChunk is the chunk size of the test rows that run the dynamic
// exchange: a prime above the fixture's 24 observations, hence a multiple of
// no node's observation count — each chunk bound is rounded up to a pair
// edge.
const dynamicChunk = 29

// chunkIf is the Options.Module.Splits.DynamicChunk that selects the dynamic
// exchange when dynamic is set and the static one otherwise.
func chunkIf(dynamic bool) int {
	if dynamic {
		return dynamicChunk
	}
	return 0
}

// TestFailpointRecoveryBitIdentical is the acceptance property of the
// fault-tolerance layer: a rank killed at each task boundary and at three
// module-learning crash points, followed by an automatic supervised restart
// from checkpoints, yields a network bit-identical to the uninterrupted run
// for p ∈ {1, 2, 4} — at one and at two workers per rank, and under the
// dynamic exchange (the reference was learned sequentially, so those rows
// also prove strategy invariance through a crash and restart). The subtest
// prefixes are pinned by the test floor and name the knobs the rows used to
// flip: "binary" rows, which chose the binary checkpoint format when there
// were two, now run at two workers; "nobatch" rows, which once flipped split
// batching and then ran the segmented scan when gather was the default, now
// run the dynamic exchange (a one-rank world has no exchange).
func TestFailpointRecoveryBitIdentical(t *testing.T) {
	d, opt, want := recoveryFixture(t)
	nm := len(want.Network.Modules)
	failpoints := []string{
		TaskGaneSH,
		TaskConsensus,
		"module:0",
		fmt.Sprintf("module:%d", nm/2),
		fmt.Sprintf("module:%d", nm-1),
	}
	for _, row := range []struct {
		name    string
		workers int
		dynamic bool
	}{{"json", 0, false}, {"binary", 2, false}, {"json_nobatch", 0, true}} {
		for _, p := range []int{1, 2, 4} {
			for _, fp := range failpoints {
				t.Run(fmt.Sprintf("%s_p%d_%s", row.name, p, fp), func(t *testing.T) {
					injected := opt
					injected.CheckpointDir = t.TempDir()
					injected.Workers = row.workers
					injected.Module.Splits.DynamicChunk = chunkIf(row.dynamic)
					injected.MaxRestarts = 1
					injected.Inject = &FaultSpec{Task: fp, Rank: 0}
					got, err := LearnParallel(p, d, injected)
					if err != nil {
						t.Fatalf("recovery failed: %v", err)
					}
					if !result.Equal(got.Network, want.Network) {
						t.Fatal("recovered network differs from the uninterrupted run")
					}
					if len(got.Recovery) != 1 {
						t.Fatalf("recorded %d recovery events, want 1", len(got.Recovery))
					}
					ev := got.Recovery[0]
					if ev.Rank != 0 || !ev.Panicked || !strings.Contains(ev.Err, fp) {
						t.Fatalf("recovery event %+v does not describe the injected failpoint %q", ev, fp)
					}
				})
			}
		}
	}
}

// TestFailpointRecoveryNonWriterRank: the crashing rank need not be the
// checkpoint writer — killing the last rank mid-module-learning recovers the
// same network from rank 0's manifests.
func TestFailpointRecoveryNonWriterRank(t *testing.T) {
	d, opt, want := recoveryFixture(t)
	const p = 4
	injected := opt
	injected.CheckpointDir = t.TempDir()
	injected.MaxRestarts = 1
	injected.Inject = &FaultSpec{Task: "module:1", Rank: p - 1}
	got, err := LearnParallel(p, d, injected)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("recovered network differs from the uninterrupted run")
	}
	if len(got.Recovery) != 1 || got.Recovery[0].Rank != p-1 {
		t.Fatalf("recovery events %+v, want one event from rank %d", got.Recovery, p-1)
	}
}

// TestCommFaultRecoveryBitIdentical kills a rank at arbitrary communication
// operations — a quarter, half, and three quarters through its op sequence,
// probed from a clean run — and checks the supervised restart still converges
// on the identical network.
func TestCommFaultRecoveryBitIdentical(t *testing.T) {
	d, opt, want := recoveryFixture(t)
	for _, p := range []int{2, 4} {
		victim := p - 1
		_, probe := worldOutputs(t, p, d, opt)
		maxOp := probe[victim].Ops
		if maxOp < 4 {
			t.Fatalf("p=%d: probe counted only %d ops on rank %d", p, maxOp, victim)
		}
		// Subtests are named by the quarter, not the op number: the number
		// moves with every change to what the run communicates.
		for quarter := int64(1); quarter <= 3; quarter++ {
			op := quarter * maxOp / 4
			t.Run(fmt.Sprintf("p%d_op%dof4", p, quarter), func(t *testing.T) {
				t.Logf("crashing rank %d at op %d of %d", victim, op, maxOp)
				injected := opt
				injected.CheckpointDir = t.TempDir()
				injected.MaxRestarts = 1
				injected.Inject = &FaultSpec{Comm: []comm.Fault{
					{Rank: victim, Op: op, Kind: comm.FaultCrash},
				}}
				got, err := LearnParallel(p, d, injected)
				if err != nil {
					t.Fatalf("recovery failed: %v", err)
				}
				if !result.Equal(got.Network, want.Network) {
					t.Fatal("recovered network differs from the uninterrupted run")
				}
				if len(got.Recovery) != 1 || got.Recovery[0].Rank != victim {
					t.Fatalf("recovery events %+v, want one crash on rank %d", got.Recovery, victim)
				}
			})
		}
	}
}

// TestRecoveryWithoutCheckpoints: restart-from-scratch (no CheckpointDir) is
// slower but must still reach the identical network — determinism, not
// persisted state, is what recovery relies on.
func TestRecoveryWithoutCheckpoints(t *testing.T) {
	d, opt, want := recoveryFixture(t)
	injected := opt
	injected.MaxRestarts = 1
	injected.Inject = &FaultSpec{Task: "module:0", Rank: 0}
	got, err := LearnParallel(2, d, injected)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("recovered network differs from the uninterrupted run")
	}
	if len(got.Recovery) != 1 {
		t.Fatalf("recorded %d recovery events, want 1", len(got.Recovery))
	}
}

// TestMaxRestartsExhausted: with recovery disabled the injected crash is the
// caller's error, identifiable as injected through the RankError chain.
func TestMaxRestartsExhausted(t *testing.T) {
	d, opt, _ := recoveryFixture(t)
	injected := opt
	injected.Inject = &FaultSpec{Task: TaskGaneSH, Rank: 0} // MaxRestarts = 0
	_, err := LearnParallel(2, d, injected)
	if err == nil {
		t.Fatal("crash with MaxRestarts=0 returned no error")
	}
	if !errors.Is(err, comm.ErrInjected) {
		t.Fatalf("error %v does not unwrap to ErrInjected", err)
	}
}

// TestLearnIsSupervised: Learn is the supervised driver on one rank, so an
// injected crash and the restart budget behave as they do for any world — at
// MaxRestarts = 0 the crash is the caller's error, at 1 the run resumes from
// its checkpoints to the uninterrupted network and says so, exactly as the
// same request submitted to parsimoned (which runs LearnParallel(1, …)) does.
func TestLearnIsSupervised(t *testing.T) {
	d, opt, want := recoveryFixture(t)
	injected := opt
	injected.Inject = &FaultSpec{Task: TaskGaneSH}
	if _, err := Learn(d, injected); !errors.Is(err, comm.ErrInjected) {
		t.Fatalf("Learn with MaxRestarts=0 returned %v, want the injected crash", err)
	}
	injected.MaxRestarts = 1
	injected.CheckpointDir = t.TempDir()
	got, err := Learn(d, injected)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("recovered network differs from the uninterrupted run")
	}
	if len(got.Recovery) != 1 || got.Recovery[0].Rank != 0 {
		t.Fatalf("recovery events %v, want one on rank 0", got.Recovery)
	}
}

// TestInjectUnknownRankRejected: a fault addressed to a rank the world does
// not have can never fire, so reporting success would be a lie; it is
// rejected before any world starts, in the failpoint and the comm form.
func TestInjectUnknownRankRejected(t *testing.T) {
	d, _ := testData(t, 20, 16, 1)
	for name, spec := range map[string]*FaultSpec{
		"task": {Task: TaskGaneSH, Rank: 5},
		"comm": {Comm: []comm.Fault{{Rank: 5, Op: 1}}},
	} {
		opt := fastOptions(3)
		opt.Inject = spec
		_, err := LearnParallel(2, d, opt)
		var re *comm.RankError
		if err == nil || errors.As(err, &re) || !strings.Contains(err.Error(), "outside the world's ranks [0, 2)") {
			t.Errorf("%s fault on rank 5 of 2: got %v, want a rejection before the world starts", name, err)
		}
	}
	opt := fastOptions(3)
	opt.Inject = &FaultSpec{CancelAt: 1, Rank: 1}
	if _, err := Learn(d, opt); err == nil {
		t.Error("Learn accepted a cancellation addressed to rank 1 of its one-rank world")
	}
}

// TestCrossEngineManifestResume: a parallel run killed mid-module-learning
// with recovery disabled leaves its manifests behind; a later *sequential*
// run pointed at the same directory must resume from them — including the
// per-module progress manifest — and learn the identical network. This is
// the CLI's kill → rerun story.
func TestCrossEngineManifestResume(t *testing.T) {
	d, opt, want := recoveryFixture(t)
	nm := len(want.Network.Modules)
	dir := t.TempDir()
	injected := opt
	injected.CheckpointDir = dir
	injected.Inject = &FaultSpec{Task: fmt.Sprintf("module:%d", nm-1), Rank: 0}
	if _, err := LearnParallel(2, d, injected); err == nil {
		t.Fatal("injected crash with MaxRestarts=0 returned no error")
	}
	// The crash happened after nm-1 modules completed, so the progress
	// manifest must exist and be non-trivial.
	if fi, err := os.Stat(filepath.Join(dir, ckptProgress)); err != nil || fi.Size() == 0 {
		t.Fatalf("no progress manifest left behind: %v", err)
	}
	resumed := opt
	resumed.CheckpointDir = dir
	got, err := Learn(d, resumed)
	if err != nil {
		t.Fatalf("sequential resume failed: %v", err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("resumed network differs from the uninterrupted run")
	}
}

// TestCheckpointVersionRejected: checkpoint files of another format are
// refused with an error naming the file and telling the user to delete the
// checkpoint directory, never as corrupt. A JSON file of any version — or of
// none — gets the one refusal of a non-wire file; a wire file of another
// version is refused naming both versions.
func TestCheckpointVersionRejected(t *testing.T) {
	d, opt, _ := recoveryFixture(t)
	for _, tc := range []struct {
		name, file string
		data       []byte
		want       string
	}{
		{"ensembles_missing_version", ckptEnsembles, []byte(`{"seed":3,"ganeshRuns":1,"n":48,"ensembles":[]}`), jsonRefusal},
		{"ensembles_explicit_v0", ckptEnsembles, []byte(`{"version":0,"seed":3,"ganeshRuns":1,"n":48,"ensembles":[]}`), jsonRefusal},
		{"progress_v1", ckptProgress, []byte(`{"version":1,"seed":3,"ganeshRuns":1,"n":48,"units":[]}`), jsonRefusal},
		{"modules_v2", ckptModules, []byte(`{"version":2,"seed":3,"ganeshRuns":1,"n":48,"streamLayout":2,"moduleVars":[]}`), jsonRefusal},
		{"binary_future_version", ckptEnsembles, func() []byte {
			data := encodeCheckpoint(&ensemblesCheckpoint{ckptStamp: ckptStamp{Key: runDigest(d, opt)}})
			data[4]++ // bump the wire version byte right after the magic
			return data
		}(), fmt.Sprintf("format v%d, this build expects v%d", wire.Version+1, wire.Version)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resumed := opt
			resumed.CheckpointDir = t.TempDir()
			writeCkpt(t, resumed.CheckpointDir, tc.file, tc.data)
			_, err := Learn(d, resumed)
			if err == nil {
				t.Fatal("resumed from a file of another format version")
			}
			for _, want := range []string{tc.file, tc.want, "delete the checkpoint directory"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
			if strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("refused as corrupt, not by version: %v", err)
			}
		})
	}
}

// TestProgressManifestForeignRejected: a manifest whose units disagree with
// the consensus modules (here: a stale unit for an out-of-range module) is an
// error, never a silent partial resume.
func TestProgressManifestForeignRejected(t *testing.T) {
	d, opt, _ := recoveryFixture(t)
	resumed := opt
	resumed.CheckpointDir = t.TempDir()
	foreign := &progressCheckpoint{ckptStamp: ckptStamp{Key: runDigest(d, resumed)},
		Units: []*module.Unit{{Module: 999, Vars: []int{0}}}}
	writeCkpt(t, resumed.CheckpointDir, ckptProgress, encodeCheckpoint(foreign))
	if _, err := Learn(d, resumed); err == nil || !strings.Contains(err.Error(), "module 999") {
		t.Fatalf("got %v, want a foreign-manifest rejection", err)
	}
}

// TestInjectValidation: malformed fault specs are rejected up front.
func TestInjectValidation(t *testing.T) {
	d, _ := testData(t, 20, 16, 1)
	for _, task := range []string{"modules", "module:", "module:-1", "module:x", "nonsense"} {
		opt := fastOptions(3)
		opt.Inject = &FaultSpec{Task: task}
		if _, err := LearnParallel(2, d, opt); err == nil {
			t.Errorf("Inject.Task %q accepted, want validation error", task)
		}
	}
	opt := fastOptions(3)
	opt.Inject = &FaultSpec{Task: TaskGaneSH, Rank: -1}
	if _, err := LearnParallel(2, d, opt); err == nil {
		t.Error("negative Inject.Rank accepted")
	}
	opt = fastOptions(3)
	opt.MaxRestarts = -1
	if _, err := LearnParallel(2, d, opt); err == nil {
		t.Error("negative MaxRestarts accepted")
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"parsimone/internal/comm"
	"parsimone/internal/dataset"
	"parsimone/internal/prng"
	"parsimone/internal/result"
)

// cancelFixture shares the recovery fixture and probes the clean run's
// cancellation-check count — the address space of the cancel matrix.
func cancelFixture(t *testing.T) (d *fixtureData, checks int64) {
	t.Helper()
	data, opt, want := recoveryFixture(t)
	probe, err := Learn(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if probe.CancelChecks < 5 {
		t.Fatalf("clean run polled only %d cancellation checks, matrix needs more structure", probe.CancelChecks)
	}
	return &fixtureData{data: data, opt: opt, want: want}, probe.CancelChecks
}

type fixtureData struct {
	data *dataset.Data
	opt  Options
	want *Output
}

// cancelAndResume cancels a run at rank victim's check index at, asserts the
// documented *CancelledError, then resumes from the drained checkpoints and
// returns the resumed output. The resume runs on resumeP ranks, and
// dynRun/dynResume select the dynamic exchange independently on the two legs
// (a one-rank leg has no exchange): the stream layout is the same under
// every world size and exchange strategy, so every combination — including a
// static run resumed under the dynamic exchange — must land on the same
// network.
func cancelAndResume(t *testing.T, f *fixtureData, p, resumeP, victim int, at int64,
	dynRun, dynResume bool) *Output {
	t.Helper()
	dir := t.TempDir()
	injected := f.opt
	injected.CheckpointDir = dir
	injected.Module.Splits.DynamicChunk = chunkIf(dynRun)
	injected.MaxRestarts = 1 // must NOT be consumed: cancellation is not a failure
	injected.Inject = &FaultSpec{CancelAt: at, Rank: victim}
	out, err := LearnParallel(p, f.data, injected)
	if err == nil {
		t.Fatalf("cancel at check %d returned no error (out=%v)", at, out != nil)
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("cancel at check %d: error %v is not a *CancelledError", at, err)
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancel at check %d: error %v does not unwrap to ErrCancelled", at, err)
	}
	if ce.CheckpointDir != dir {
		t.Fatalf("CancelledError names dir %q, want %q", ce.CheckpointDir, dir)
	}
	for _, name := range ce.Checkpoints {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("CancelledError lists %s but it is not durable: %v", name, err)
		}
	}
	resumed := f.opt
	resumed.CheckpointDir = dir
	resumed.Module.Splits.DynamicChunk = chunkIf(dynResume)
	got, err := LearnParallel(resumeP, f.data, resumed)
	if err != nil {
		t.Fatalf("resume after cancel at check %d failed: %v", at, err)
	}
	return got
}

// TestCancelMatrixBitIdentical is the acceptance property of cooperative
// cancellation: a run cancelled at EVERY cancellation check (the cancel
// analog of the crash matrix's failpoints), then resumed from its drained
// checkpoints, learns a network bit-identical to the uninterrupted run.
// Exhaustive over check indices at p=1; the p ∈ {2, 4} worlds cover five
// spread indices each, mirroring the crash matrix's density, and so do the
// rows that resume on another world size. The dynamic rows rerun spread
// indices under the dynamic exchange — a one-rank run resumed on three
// ranks, a four-rank run resumed on four, and a static run resumed under the
// dynamic one — proving resume bit-identity on both exchange paths and across
// them. The subtest prefixes are pinned by the test floor and name the knobs
// the rows used to flip: "binary" rows, which chose the binary checkpoint
// format when there were two, now resume on another world size; "nobatch"
// rows, which once flipped split batching and then the gather/scan exchange,
// now flip static ↔ dynamic (the two booleans: run leg, resume leg).
func TestCancelMatrixBitIdentical(t *testing.T) {
	f, checks := cancelFixture(t)
	spread := []int64{1, checks / 4, checks / 2, 3 * checks / 4, checks}
	cases := []struct {
		id         string
		p, resumeP int
		at         []int64
		dynamic    [2]bool // [run leg, resume leg]
	}{
		{"json", 1, 1, nil, [2]bool{}}, // nil → every check index
		{"binary", 1, 2, spread, [2]bool{}},
		{"json", 2, 2, spread, [2]bool{}},
		{"binary", 2, 4, spread, [2]bool{}},
		{"json", 4, 4, spread, [2]bool{}},
		{"binary", 4, 1, spread, [2]bool{}},
		{"json", 1, 3, spread, [2]bool{true, true}},
		{"binary", 4, 4, spread, [2]bool{true, true}},
		{"json", 2, 2, spread, [2]bool{false, true}}, // cross: static run, dynamic resume
	}
	for _, tc := range cases {
		ats := tc.at
		if ats == nil {
			for at := int64(1); at <= checks; at++ {
				ats = append(ats, at)
			}
		}
		id := tc.id
		if tc.dynamic[0] || tc.dynamic[1] {
			id += fmt.Sprintf("_nobatch%v%v", tc.dynamic[0], tc.dynamic[1])
		}
		for _, at := range ats {
			t.Run(fmt.Sprintf("%s_p%d_check%d", id, tc.p, at), func(t *testing.T) {
				got := cancelAndResume(t, f, tc.p, tc.resumeP, 0, at, tc.dynamic[0], tc.dynamic[1])
				if !result.Equal(got.Network, f.want.Network) {
					t.Fatal("resumed network differs from the uninterrupted run")
				}
				if len(got.Recovery) != 0 {
					t.Fatalf("resume recorded %d recovery events, want 0 (cancellation is not a failure)", len(got.Recovery))
				}
			})
		}
	}
}

// TestCancelMatrixRankGroups is the grouped row of the cancel matrix: at
// p=2 with G=2 each rank executes one GaneSH run on its own rank group, so a
// rank polls the update steps of its group's runs only and the check count
// depends on the rank (Output.CancelChecks). Probed per rank at that p, a run
// cancelled at every check index of rank 0 and of rank 1, then resumed from
// its drained checkpoints, learns the uninterrupted network.
func TestCancelMatrixRankGroups(t *testing.T) {
	data, opt, _ := recoveryFixture(t)
	opt.GaneshRuns = 2
	want, err := Learn(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixtureData{data: data, opt: opt, want: want}
	const p = 2
	outs, _ := worldOutputs(t, p, data, opt)
	for victim, out := range outs {
		n := out.CancelChecks
		if n < 5 {
			t.Fatalf("rank %d polled only %d cancellation checks, matrix needs more structure", victim, n)
		}
		for at := int64(1); at <= n; at++ {
			t.Run(fmt.Sprintf("rank%d_check%d", victim, at), func(t *testing.T) {
				got := cancelAndResume(t, f, p, p, victim, at, false, false)
				if !result.Equal(got.Network, want.Network) {
					t.Fatal("resumed network differs from the uninterrupted run")
				}
				if len(got.Recovery) != 0 {
					t.Fatalf("resume recorded %d recovery events, want 0 (cancellation is not a failure)", len(got.Recovery))
				}
			})
		}
	}
}

// TestCancelChecksInvariant: the check count is a pure function of the run
// configuration — identical for the sequential engine and every world size.
// This is what makes (Rank, CancelAt) a reproducible address and proves the
// checks sit at replicated program points only.
func TestCancelChecksInvariant(t *testing.T) {
	f, checks := cancelFixture(t)
	for _, p := range []int{1, 2, 4} {
		out, err := LearnParallel(p, f.data, f.opt)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if out.CancelChecks != checks {
			t.Fatalf("p=%d polled %d cancellation checks, sequential run polled %d", p, out.CancelChecks, checks)
		}
	}
}

// TestCancelVictimRankIrrelevant: cancelling a non-writer rank drains the
// same resumable state — the abort propagates to the writer, which has
// already persisted every completed unit.
func TestCancelVictimRankIrrelevant(t *testing.T) {
	f, checks := cancelFixture(t)
	const p = 4
	dir := t.TempDir()
	injected := f.opt
	injected.CheckpointDir = dir
	injected.Inject = &FaultSpec{CancelAt: checks / 2, Rank: p - 1}
	if _, err := LearnParallel(p, f.data, injected); !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	resumed := f.opt
	resumed.CheckpointDir = dir
	got, err := LearnParallel(p, f.data, resumed)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !result.Equal(got.Network, f.want.Network) {
		t.Fatal("resumed network differs from the uninterrupted run")
	}
}

// TestAlreadyCancelledContext: a context cancelled before the run starts
// stops it at the first check, through both engines, as ErrCancelled.
func TestAlreadyCancelledContext(t *testing.T) {
	d, _ := testData(t, 20, 16, 1)
	opt := fastOptions(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt.Ctx = ctx
	t.Run("sequential", func(t *testing.T) {
		out, err := Learn(d, opt)
		if out != nil || !errors.Is(err, ErrCancelled) {
			t.Fatalf("got (%v, %v), want (nil, ErrCancelled)", out != nil, err)
		}
		var ce *CancelledError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *CancelledError", err)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		out, err := LearnParallel(2, d, opt)
		if out != nil || !errors.Is(err, ErrCancelled) {
			t.Fatalf("got (%v, %v), want (nil, ErrCancelled)", out != nil, err)
		}
	})
}

// TestDeadlineMapsToErrDeadline: a context stopped by its deadline is
// distinguishable from an explicit cancellation.
func TestDeadlineMapsToErrDeadline(t *testing.T) {
	d, _ := testData(t, 20, 16, 1)
	opt := fastOptions(3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opt.Ctx = ctx
	_, err := Learn(d, opt)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if errors.Is(err, ErrCancelled) {
		t.Fatalf("deadline expiry also matches ErrCancelled: %v", err)
	}
}

// TestUnfiredContextInvisible: attaching a live context that never fires
// must be result-invisible — bit-identical network, zero PRNG perturbation.
func TestUnfiredContextInvisible(t *testing.T) {
	d, _ := testData(t, 20, 16, 1)
	opt := fastOptions(3)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt.Ctx = ctx
	got, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("attaching an unfired context changed the learned network")
	}
	if got.CancelChecks != want.CancelChecks {
		t.Fatalf("check counts differ with (%d) and without (%d) a context", got.CancelChecks, want.CancelChecks)
	}
}

// TestCancelAtValidation: malformed cancel injections are rejected up front.
func TestCancelAtValidation(t *testing.T) {
	d, _ := testData(t, 20, 16, 1)
	opt := fastOptions(3)
	opt.Inject = &FaultSpec{CancelAt: -1}
	if _, err := LearnParallel(2, d, opt); err == nil {
		t.Error("negative CancelAt accepted")
	}
	opt = fastOptions(3)
	opt.Inject = &FaultSpec{CancelAt: 1, Task: TaskGaneSH}
	if _, err := LearnParallel(2, d, opt); err == nil {
		t.Error("CancelAt combined with Task accepted")
	}
}

// TestSweepOrphanedTempCheckpoints: a run killed mid-write can orphan a
// checkpoint *.tmp file; resume must remove it and still recover the
// bit-identical network from the durable files beside it.
func TestSweepOrphanedTempCheckpoints(t *testing.T) {
	d, opt, want := recoveryFixture(t)
	dir := t.TempDir()
	injected := opt
	injected.CheckpointDir = dir
	injected.Inject = &FaultSpec{Task: "module:1", Rank: 0} // MaxRestarts = 0: leaves checkpoints behind
	if _, err := LearnParallel(2, d, injected); err == nil {
		t.Fatal("injected crash returned no error")
	}
	// Plant stale temp files — the debris of an interrupted atomic rename.
	for _, name := range []string{ckptEnsembles, ckptModules, ckptProgress} {
		stale := filepath.Join(dir, name+".tmp")
		if err := os.WriteFile(stale, []byte("torn partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	resumed := opt
	resumed.CheckpointDir = dir
	got, err := LearnParallel(2, d, resumed)
	if err != nil {
		t.Fatalf("resume beside stale temp files failed: %v", err)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("resumed network differs from the uninterrupted run")
	}
	for _, name := range []string{ckptEnsembles, ckptModules, ckptProgress} {
		if _, err := os.Stat(filepath.Join(dir, name+".tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale %s.tmp survived the resume sweep (err=%v)", name, err)
		}
	}
}

// TestSoakCancelFaultChaos is the seeded chaos soak behind `make soak`: a
// deterministic MRG3 stream picks (p, cancel point, static or dynamic
// exchange per leg, and optionally a comm-fault crash) per
// iteration; every iteration must end in the bit-identical network, either
// directly (fault + supervised restart) or after a resume (cancellation).
// The exchange draws are independent for the run and resume legs, so the
// soak also exercises crossing the static/dynamic boundary mid-job (the
// "nobatch" in the subtest IDs is the floor-pinned name of those draws,
// which once chose split batching and then gather or scan).
// PARSIMONE_SOAK_ITERS scales the iteration count (default 3, so the test
// stays cheap in tier-1).
func TestSoakCancelFaultChaos(t *testing.T) {
	iters := 3
	if s := os.Getenv("PARSIMONE_SOAK_ITERS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad PARSIMONE_SOAK_ITERS %q", s)
		}
		iters = v
	}
	f, checks := cancelFixture(t)
	g := prng.New(0xC0FFEE)
	ps := []int{1, 2, 4}
	// Crash addresses are drawn within the ops a rank of each world size
	// makes, probed from a clean run: a fixed range would mostly miss now
	// that cheap decisions send nothing (DESIGN §19).
	opsPerRank := map[int]int{}
	for _, p := range ps[1:] {
		clean, err := LearnParallel(p, f.data, f.opt)
		if err != nil {
			t.Fatal(err)
		}
		opsPerRank[p] = int(clean.CommStats.Ops) / p
	}
	for i := 0; i < iters; i++ {
		p := ps[g.Intn(len(ps))]
		// Drawn and discarded: the checkpoint format had two values once,
		// and the draw keeps the seeded plans and their subtest IDs.
		_ = g.Intn(2)
		at := int64(1 + g.Intn(int(checks)))
		crash := g.Intn(2) == 1 && p > 1
		dynRun := g.Intn(2) == 1
		dynResume := g.Intn(2) == 1
		t.Run(fmt.Sprintf("iter%d_p%d_at%d_crash%v_nobatch%v%v", i, p, at, crash, dynRun, dynResume), func(t *testing.T) {
			if crash {
				// Fault plan: crash a random rank at a random comm op, let
				// the supervised restart recover.
				dir := t.TempDir()
				injected := f.opt
				injected.CheckpointDir = dir
				injected.Module.Splits.DynamicChunk = chunkIf(dynRun)
				injected.MaxRestarts = 1
				injected.Inject = &FaultSpec{Comm: []comm.Fault{
					{Rank: g.Intn(p), Op: int64(1 + g.Intn(opsPerRank[p])), Kind: comm.FaultCrash},
				}}
				got, err := LearnParallel(p, f.data, injected)
				if err != nil {
					t.Fatalf("soak recovery failed: %v", err)
				}
				if !result.Equal(got.Network, f.want.Network) {
					t.Fatal("soak-recovered network differs from the uninterrupted run")
				}
				return
			}
			got := cancelAndResume(t, f, p, p, 0, at, dynRun, dynResume)
			if !result.Equal(got.Network, f.want.Network) {
				t.Fatal("soak resume differs from the uninterrupted run")
			}
		})
	}
}

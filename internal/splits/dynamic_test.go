package splits

import (
	"reflect"
	"testing"
	"time"

	"parsimone/internal/comm"
	"parsimone/internal/obs"
	"parsimone/internal/prng"
	"parsimone/internal/score"
)

// TestFaultDelayedNextLeavesListToRankZero: on two ranks, a rank 1 stalled
// at its first Next leaves the whole list to rank 0, which scores like any
// other rank — no rank only coordinates — and the result is still the
// one-rank Learn's. Rank 0's split_steps histogram equal to a one-rank
// world's shows it scored every candidate.
func TestFaultDelayedNextLeavesListToRankZero(t *testing.T) {
	q, modules, trees, _ := fixture(t, 11)
	pr := score.DefaultPrior()
	par := Params{NumSplits: 2, MaxSteps: 24, DynamicChunk: 7}
	want := Learn(q, pr, modules, trees, par, prng.New(17), nil)
	oneRank := obs.NewRegistry()
	LearnWithComm(on(comm.Self(), 1, oneRank), q, kernelOf(q, pr), modules, trees, par, prng.New(17))

	// Rank 1's ops 1 and 2 are NewCounter's broadcast; op 3 is its first
	// Next. The stall is far longer than rank 0 takes to score the list.
	const delay = 500 * time.Millisecond
	faults := []comm.Fault{{Rank: 1, Op: 3, Kind: comm.FaultDelay, Delay: delay}}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	start := time.Now()
	_, err := comm.RunWithFaults(2, faults, func(c *comm.Comm) error {
		got := learnRanks(on(c, 1, regs[c.Rank()]), q, kernelOf(q, pr), modules, trees, par, prng.New(17))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: result differs from the one-rank Learn", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("world finished in %v, before rank 1's %v stall: the fault did not address its Next", elapsed, delay)
	}
	if got, all := splitSteps(t, string(registryJSON(t, regs[0]))), splitSteps(t, string(registryJSON(t, oneRank))); got != all {
		t.Errorf("rank 0 scored split_steps %s, the whole list is %s", got, all)
	}
}

// TestDynamicTrafficScheduleInvariant: the world's total traffic on the
// dynamic path — sends, elements, collectives — is the same whichever rank
// scores which chunk, so the counters a benchmark compares across runs
// repeat. Stalling rank 1 or rank 2 at its first Next (op 3: NewCounter's
// broadcast is ops 1–2) hands its share to the others.
func TestDynamicTrafficScheduleInvariant(t *testing.T) {
	q, modules, trees, _ := fixture(t, 11)
	pr := score.DefaultPrior()
	par := Params{NumSplits: 2, MaxSteps: 24, DynamicChunk: 7}
	total := func(faults []comm.Fault) comm.Stats {
		stats, err := comm.RunWithFaults(3, faults, func(c *comm.Comm) error {
			learnRanks(on(c, 1, nil), q, kernelOf(q, pr), modules, trees, par, prng.New(17))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum comm.Stats
		for _, s := range stats {
			sum.Add(s)
		}
		return comm.Stats{Sends: sum.Sends, Elems: sum.Elems, Collectives: sum.Collectives}
	}
	want := total(nil)
	for _, stalled := range []int{1, 2} {
		faults := []comm.Fault{{Rank: stalled, Op: 3, Kind: comm.FaultDelay, Delay: 100 * time.Millisecond}}
		if got := total(faults); got != want {
			t.Errorf("rank %d stalled: traffic %+v, unstalled %+v", stalled, got, want)
		}
	}
}

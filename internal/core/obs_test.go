package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"parsimone/internal/obs"
	"parsimone/internal/result"
	"parsimone/internal/splits"
	"parsimone/internal/synth"
	"parsimone/internal/trace"
)

// withObs turns on both sinks.
func withObs(opt Options) Options {
	opt.Events = true
	opt.Metrics = obs.NewRegistry()
	return opt
}

// phaseTotals renders a recorded workload one line of totals per phase, in
// phase order.
func phaseTotals(wl *trace.Workload) string {
	var b strings.Builder
	for _, ph := range wl.Phases {
		fmt.Fprintf(&b, "%s items=%d cost=%v serial=%v collectives=%d words=%d\n",
			ph.Name, len(ph.Items), ph.TotalCost(), ph.SerialCost, ph.Collectives, ph.Words)
	}
	return b.String()
}

// TestObservabilityResultInvisible is the §4.2 contract extended to the
// observability layer: attaching the event recorder and metrics registry
// must not change the learned network, sequentially or on p ranks, because
// the sinks never consume PRNG draws or alter control flow.
func TestObservabilityResultInvisible(t *testing.T) {
	d, _ := testData(t, 24, 20, 31)
	opt := fastOptions(41)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Learn(d, withObs(opt))
	if err != nil {
		t.Fatal(err)
	}
	if !result.Equal(seq.Network, want.Network) {
		t.Fatal("sequential: sinks changed the network")
	}
	if len(seq.Events) == 0 {
		t.Fatal("sequential: no events recorded")
	}
	if err := obs.Validate(seq.Events); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3} {
		got, err := LearnParallel(p, d, withObs(opt))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !result.Equal(got.Network, want.Network) {
			t.Fatalf("p=%d: sinks changed the network", p)
		}
		if err := obs.Validate(got.Events); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestRecordWorkIsNotObservation: the work record rides in the rank's hooks
// but observes nothing, so a RecordWork-only learn makes exactly the
// unobserved learn's communication calls and cancellation checks — fault op
// addresses and cancel points do not move — and learns the same network.
func TestRecordWorkIsNotObservation(t *testing.T) {
	d, _ := testData(t, 24, 20, 31)
	opt := fastOptions(41)
	want, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.RecordWork = true
	got, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload == nil || got.Workload.Phase(splits.PhaseAssign) == nil {
		t.Fatal("no split work recorded")
	}
	if got.CommStats != want.CommStats || got.CancelChecks != want.CancelChecks {
		t.Fatalf("RecordWork: comm %+v, %d cancel checks; unobserved: comm %+v, %d cancel checks",
			got.CommStats, got.CancelChecks, want.CommStats, want.CancelChecks)
	}
	if !result.Equal(got.Network, want.Network) {
		t.Fatal("RecordWork changed the network")
	}
}

// TestObservabilityEventStreamDeterministic: two same-seed runs record
// identical event streams modulo the wall-clock fields, and the canonical
// stream is also identical across worker counts (per-rank cost events are a
// pure function of the static schedule, not of goroutine interleaving).
func TestObservabilityEventStreamDeterministic(t *testing.T) {
	d, _ := testData(t, 24, 20, 32)
	opt := fastOptions(43)
	a, err := LearnParallel(2, d, withObs(opt))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LearnParallel(2, d, withObs(opt))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.DiffCanonical(a.Events, b.Events); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilitySequentialEventShape pins the task-level skeleton of the
// sequential stream: run.start first, run.end last, every task bracketed,
// one module.start/module.done pair per learned module.
func TestObservabilitySequentialEventShape(t *testing.T) {
	d, _ := testData(t, 24, 20, 33)
	out, err := Learn(d, withObs(fastOptions(45)))
	if err != nil {
		t.Fatal(err)
	}
	evs := out.Events
	if evs[0].Type != obs.TypeRunStart {
		t.Fatalf("first event %s, want run.start", evs[0].Type)
	}
	last := evs[len(evs)-1]
	if last.Type != obs.TypeRunEnd {
		t.Fatalf("last event %s, want run.end", last.Type)
	}
	if last.Run.Modules != len(out.Network.Modules) {
		t.Fatalf("run.end module count %d, want %d", last.Run.Modules, len(out.Network.Modules))
	}
	count := map[string]int{}
	for _, ev := range evs {
		count[ev.Type]++
		if ev.Rank != 0 {
			t.Fatalf("sequential event on rank %d: %+v", ev.Rank, ev)
		}
	}
	if count[obs.TypeTaskStart] != 3 || count[obs.TypeTaskEnd] != 3 {
		t.Fatalf("task bracketing wrong: %v", count)
	}
	nm := len(out.Network.Modules)
	if count[obs.TypeModuleStart] != nm || count[obs.TypeModuleDone] != nm {
		t.Fatalf("module events %d/%d, want %d each", count[obs.TypeModuleStart], count[obs.TypeModuleDone], nm)
	}
	// task.end carries the measured duration.
	for _, ev := range evs {
		if ev.Type == obs.TypeTaskEnd && ev.DurNS < 0 {
			t.Fatalf("negative task duration: %+v", ev)
		}
	}
}

// TestObservabilityRecoveryEventsLead: after an injected rank failure the
// merged stream starts with the recovery record, then the surviving
// attempt's run.start, and remains schema-valid.
func TestObservabilityRecoveryEventsLead(t *testing.T) {
	d, _ := testData(t, 24, 20, 34)
	opt := withObs(fastOptions(47))
	opt.MaxRestarts = 1
	opt.Inject = &FaultSpec{Task: TaskGaneSH, Rank: 1}
	out, err := LearnParallel(2, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Recovery) != 1 {
		t.Fatalf("recovery events: %v", out.Recovery)
	}
	if err := obs.Validate(out.Events); err != nil {
		t.Fatal(err)
	}
	if out.Events[0].Type != obs.TypeRecovery || out.Events[0].Recovery.Attempt != 1 {
		t.Fatalf("first event %+v, want the recovery record", out.Events[0])
	}
	if out.Events[1].Type != obs.TypeRunStart {
		t.Fatalf("second event %s, want the restarted run.start", out.Events[1].Type)
	}
}

// TestObservabilityCheckpointEvents: a checkpointed run records one
// checkpoint.write per persisted artifact, and a resumed run records
// task.resume instead of re-bracketing the completed tasks.
func TestObservabilityCheckpointEvents(t *testing.T) {
	d, _ := testData(t, 24, 20, 35)
	opt := withObs(fastOptions(49))
	opt.CheckpointDir = t.TempDir()
	out, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]int{}
	for _, ev := range out.Events {
		if ev.Type == obs.TypeCheckpoint {
			files[ev.Checkpoint.File]++
		}
	}
	nm := len(out.Network.Modules)
	if files["ensembles.json"] != 1 || files["modules.json"] != 1 || files["progress.json"] != nm {
		t.Fatalf("checkpoint events %v, want 1/1/%d", files, nm)
	}
	// Resume from the completed checkpoints: the heavy tasks are skipped
	// and the stream says so.
	opt.Metrics = obs.NewRegistry()
	again, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, ev := range again.Events {
		switch ev.Type {
		case obs.TypeTaskResume:
			resumed++
		case obs.TypeModuleStart:
			t.Fatalf("resumed run re-learned module %d", ev.Module.Index)
		}
	}
	if resumed == 0 {
		t.Fatal("resumed run recorded no task.resume events")
	}
	if !result.Equal(again.Network, out.Network) {
		t.Fatal("resumed network differs")
	}
}

// TestClusterShapedTelemetryPinned pins everything a traced learn of the
// benchmark's `cluster` shape (many variables, three GaneSH runs, strict
// consensus, little split scoring) reports about its own work, one digest per
// component so a re-pin shows what moved: the canonical event stream
// (consensus.extract payloads included), the registry dump (pool_cost_total,
// ganesh_decisions_total, …), the recorded workload's phase totals, and the
// binary network. A change that makes the same work faster must leave all
// four alone; one that redefines a counter or a cost weight re-records that
// component in its own reviewed commit — as stream layout 2 did (split
// posteriors, cost model and counters), and as the distribution rule did for
// `workload` alone (DESIGN §19: a decision below the constant is recorded as
// serial cost, with no items, collectives or words), and as the certified
// split decision did for `registry` alone (DESIGN §23: the split phase counts
// what each threshold-step was instead of memo hits and misses). `workload`
// was re-recorded once more when the per-worker cost column left the model,
// and `registry` when tree merge rounds joined the decision accounting
// (obs.Hooks.Decision: pool_cost_total, pool_items_total and
// tree_decisions_total for tree/build). `events` was re-recorded when the
// consensus task's Lanczos solver replaced power iteration: each
// consensus.extract event carries its Ritz value and matrix products.
func TestClusterShapedTelemetryPinned(t *testing.T) {
	pinned := map[string]string{
		"events":   "660568304d1ae73e8978d29b6dce7fef366d97664dfa0d737a95cc71e22a4d4d",
		"registry": "cf28e64e5fd22ebbc7b6dd81183e8397015578cebfabd0e16cf061fdbd423347",
		"workload": "548ccd95249d82aaad406f814c6c204753f17ef94dbebca095802c6e27f34443",
		"network":  "b9dcd0a65107d8d9ce2115b7ffcb372627e7b6121f85595b4a47413605d8fa46",
	}
	d, _, err := synth.Generate(synth.Config{N: 240, M: 24, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	opt := clusterShapedOptions(15)
	opt.RecordWork = true
	opt = withObs(opt)
	out, err := Learn(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	var events, registry, workload, network bytes.Buffer
	if err := obs.WriteJSONL(&events, obs.Canonical(out.Events)); err != nil {
		t.Fatal(err)
	}
	if err := opt.Metrics.WriteJSON(&registry); err != nil {
		t.Fatal(err)
	}
	workload.WriteString(phaseTotals(out.Workload))
	if err := out.Network.WriteBinary(&network); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		buf  *bytes.Buffer
	}{{"events", &events}, {"registry", &registry}, {"workload", &workload}, {"network", &network}} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.buf.Bytes())); got != pinned[c.name] {
			t.Errorf("%s digest %s, pinned %s (%d events, %d modules, %d bytes digested)",
				c.name, got, pinned[c.name], len(out.Events), len(out.Network.Modules), c.buf.Len())
		}
	}
}

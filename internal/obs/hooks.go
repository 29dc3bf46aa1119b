// Hooks bundle the accounting sinks of one rank: the per-rank event recorder,
// the (shared, concurrency-safe) metrics registry and the work record the
// scaling model reads. The engines reach them through the rank's run context
// (internal/rank), never through a Params struct.

package obs

import (
	"fmt"
	"strings"

	"parsimone/internal/comm"
	"parsimone/internal/pool"
	"parsimone/internal/trace"
)

// Hooks carries the sinks of one rank. A nil *Hooks — and a Hooks with nil
// fields — is a valid no-op, so engines call through it unconditionally.
// Decision and Serial belong to the rank's own goroutine.
type Hooks struct {
	// Rec receives this rank's events (nil disables event recording).
	Rec *Recorder
	// Reg receives metrics (shared across ranks; nil disables metrics).
	Reg *Registry
	// Work, when non-nil, records the parallelizable work for the scaling
	// model — on a one-rank world only, where a rank's share is all of it.
	Work *trace.Workload
	// decisions caches Decision's per-phase handles, so the hot decision
	// loop skips the registry lookup.
	decisions map[string]*decisionAcct
}

// decisionAcct is one phase's cached Decision handles; the counters are nil
// without a registry, work is nil without a work record.
type decisionAcct struct {
	cost, items, decisions *Counter
	work                   *trace.Phase
}

// NewHooks returns hooks over the given sinks, or nil if all three are nil
// (so `hooks == nil` stays the cheap fast-path test in the engines).
func NewHooks(rec *Recorder, reg *Registry, wl *trace.Workload) *Hooks {
	if rec == nil && reg == nil && wl == nil {
		return nil
	}
	return &Hooks{Rec: rec, Reg: reg, Work: wl}
}

// Observed reports whether events or metrics are attached — whether anything
// outside the rank reads its accounting, which a work record alone does not.
// A layer that communicates only to be observed gates the collective on it,
// identically on every rank.
func (h *Hooks) Observed() bool { return h != nil && (h.Rec != nil || h.Reg != nil) }

// Phase returns the work record's phase of that name, appending it on first
// use with the given barrier mode, or nil without a work record.
func (h *Hooks) Phase(name string, perSegment bool) *trace.Phase {
	if h == nil || h.Work == nil {
		return nil
	}
	ph := h.Work.Phase(name)
	if ph == nil {
		ph = h.Work.AddPhase(name)
		ph.PerSegmentBarrier = perSegment
	}
	return ph
}

// Decision accounts one collective decision of n candidates — candidate i
// costing cost(i), all of them total, words moved when it is distributed —
// of which this rank evaluated st (zero Stats for a replicated decision). It
// is the one definition of how a decision is accounted (DESIGN §19). The
// registry counts what this rank evaluated: its block's pool counters when
// trace.Distributed(total), every candidate otherwise, plus one decision on
// `<engine>_decisions_total`, the engine being the phase name's prefix. The
// work record gets the decision on a per-segment phase (trace.AddDecision).
func (h *Hooks) Decision(phase string, n int, cost func(int) float64, total float64, words int64, st pool.Stats) {
	if h == nil || (h.Reg == nil && h.Work == nil) {
		return
	}
	a := h.decisions[phase]
	if a == nil {
		a = &decisionAcct{work: h.Phase(phase, true)}
		if h.Reg != nil {
			a.cost, a.items = h.Reg.PoolCounters(phase)
			engine, _, _ := strings.Cut(phase, "/")
			a.decisions = h.Reg.Counter(engine+"_decisions_total", "collective decisions made by phase", "phase", phase)
		}
		if h.decisions == nil {
			h.decisions = make(map[string]*decisionAcct)
		}
		h.decisions[phase] = a
	}
	if a.decisions != nil {
		evaluated, items := total, int64(n)
		if trace.Distributed(total) {
			evaluated, items = totals(st)
		}
		a.cost.Add(int64(evaluated))
		a.items.Add(items)
		a.decisions.Add(1)
	}
	if a.work != nil {
		a.work.AddDecision(n, cost, total, words)
	}
}

// Serial records replicated work of a decision phase — a state transition
// every rank applies — as serial cost on its per-segment phase.
func (h *Hooks) Serial(phase string, cost float64) {
	if ph := h.Phase(phase, true); ph != nil {
		ph.SerialCost += cost
	}
}

// Emit forwards to the recorder; safe on nil hooks.
func (h *Hooks) Emit(ev Event) {
	if h == nil {
		return
	}
	h.Rec.Emit(ev)
}

// Registry returns the metrics registry, or nil.
func (h *Hooks) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.Reg
}

// PoolCost emits one worker-pool cost summary event for a phase evaluation
// and accumulates the phase's cost and item counters into the registry. The
// pool's static chunk assignment makes st deterministic for a fixed
// (n, workers, chunk), so the event is determinism-safe.
func (h *Hooks) PoolCost(phase string, st pool.Stats) {
	if h == nil {
		return
	}
	h.Rec.Emit(Event{Type: TypePoolCost, Pool: &PoolInfo{
		Phase:   phase,
		Workers: st.Workers,
		Cost:    append([]float64(nil), st.Cost...),
		Items:   append([]int64(nil), st.Items...),
	}})
	if h.Reg != nil {
		cost, items := totals(st)
		costs, evaluated := h.Reg.PoolCounters(phase)
		costs.Add(int64(cost))
		evaluated.Add(items)
	}
}

// totals sums a pool evaluation's per-worker cost and item counters.
func totals(st pool.Stats) (cost float64, items int64) {
	for w := range st.Cost {
		cost += st.Cost[w]
		items += st.Items[w]
	}
	return cost, items
}

// PoolCounters returns the two counters every layer that evaluates work items
// accumulates into, by phase: the abstract cost and the number of items.
func (r *Registry) PoolCounters(phase string) (cost, items *Counter) {
	return r.Counter("pool_cost_total", "accumulated abstract work-item cost by phase", "phase", phase),
		r.Counter("pool_items_total", "work items evaluated by phase", "phase", phase)
}

// WorkerImbalance emits the §5.3.1 imbalance of one pool evaluation across
// the rank's workers and records it as a gauge.
func (h *Hooks) WorkerImbalance(phase string, st pool.Stats) {
	if h == nil || st.Workers <= 1 {
		return
	}
	v := trace.Imbalance(st.Cost)
	h.Rec.Emit(Event{Type: TypeImbalance, Imbalance: &ImbalanceInfo{
		Phase: phase, Across: "workers", Value: v,
		PerUnit: append([]float64(nil), st.Cost...),
	}})
	if h.Reg != nil {
		h.Reg.Gauge("imbalance_workers", "latest §5.3.1 worker load imbalance by phase", "phase", phase).Set(v)
	}
}

// RankImbalance emits the §5.3.1 imbalance of a phase's per-rank work. The
// caller gathers the per-rank costs (deterministically) and invokes this on
// rank 0 only, keeping the event single-sourced.
func (h *Hooks) RankImbalance(phase string, perRank []float64) {
	if h == nil || len(perRank) <= 1 {
		return
	}
	v := trace.Imbalance(perRank)
	h.Rec.Emit(Event{Type: TypeImbalance, Imbalance: &ImbalanceInfo{
		Phase: phase, Across: "ranks", Value: v,
		PerUnit: append([]float64(nil), perRank...),
	}})
	if h.Reg != nil {
		h.Reg.Gauge("imbalance_ranks", "latest §5.3.1 rank load imbalance by phase", "phase", phase).Set(v)
	}
}

// CommStats emits one per-rank traffic snapshot event and mirrors the
// counters into the registry under a rank label.
func (h *Hooks) CommStats(rank int, s comm.Stats) {
	if h == nil {
		return
	}
	snap := s
	h.Rec.Emit(Event{Type: TypeCommStats, Comm: &snap})
	if h.Reg != nil {
		label := fmt.Sprintf("%d", rank)
		h.Reg.Counter("comm_sends_total", "point-to-point messages sent", "rank", label).Add(s.Sends)
		h.Reg.Counter("comm_elems_total", "elements (words) sent", "rank", label).Add(s.Elems)
		h.Reg.Counter("comm_collectives_total", "collective operations entered", "rank", label).Add(s.Collectives)
		h.Reg.Counter("comm_ops_total", "communication calls made", "rank", label).Add(s.Ops)
		h.Reg.Counter("comm_retries_total", "messages retransmitted after a drop", "rank", label).Add(s.Retries)
	}
}

// Hooks bundle the two sinks of one rank: the per-rank event recorder and the
// (shared, concurrency-safe) metrics registry. The engines reach them through
// the rank's run context (internal/rank), never through a Params struct.

package obs

import (
	"fmt"

	"parsimone/internal/comm"
	"parsimone/internal/pool"
	"parsimone/internal/trace"
)

// Hooks carries the sinks of one rank. A nil *Hooks — and a Hooks with nil
// fields — is a valid no-op, so engines call through it unconditionally.
type Hooks struct {
	// Rec receives this rank's events (nil disables event recording).
	Rec *Recorder
	// Reg receives metrics (shared across ranks; nil disables metrics).
	Reg *Registry
}

// NewHooks returns hooks over the given sinks, or nil if both are nil (so
// `hooks == nil` stays the cheap fast-path test in the engines).
func NewHooks(rec *Recorder, reg *Registry) *Hooks {
	if rec == nil && reg == nil {
		return nil
	}
	return &Hooks{Rec: rec, Reg: reg}
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
		var cost float64
		var items int64
		for _, c := range st.Cost {
			cost += c
		}
		for _, n := range st.Items {
			items += n
		}
		costs, evaluated := h.Reg.PoolCounters(phase)
		costs.Add(int64(cost))
		evaluated.Add(items)
	}
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

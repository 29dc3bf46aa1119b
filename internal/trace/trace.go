// Package trace provides the instrumentation used to reproduce the paper's
// performance analysis: per-task wall-clock timers (Fig. 5a/5c), per-work-item
// cost accounting, the load-imbalance measure of §5.3.1, and a strong-scaling
// time model.
//
// The time model addresses a hardware substitution documented in DESIGN.md:
// the paper measures wall time on up to 4096 physical cores, which this
// environment does not have. The engines here record the cost of every work
// item (in abstract cost units proportional to the arithmetic performed,
// e.g. sampling steps × observations for a candidate split). Because the
// parallel algorithm partitions work items over ranks with a fixed
// deterministic rule, the per-rank work for any p can be computed exactly
// from the recorded item costs, and the modeled parallel time is
//
//	T(p) = κ · max_k work_k(p) + comm(p)
//
// where κ (seconds per cost unit) is calibrated from the measured sequential
// wall time and comm(p) charges each collective call α·⌈log₂ p⌉ plus β per
// transferred word, the standard postal model the paper's complexity analysis
// uses (§3.1).
package trace

import (
	"fmt"
	"time"
)

// Timers accumulates named wall-clock durations in first-use order, matching
// the paper's task decomposition (GaneSH / consensus clustering / learning
// modules, and the phases within the last task).
type Timers struct {
	order []string
	m     map[string]time.Duration
}

// NewTimers returns an empty timer set.
func NewTimers() *Timers {
	return &Timers{m: make(map[string]time.Duration)}
}

// Add accumulates d into the named timer.
func (t *Timers) Add(name string, d time.Duration) {
	if _, ok := t.m[name]; !ok {
		t.order = append(t.order, name)
	}
	t.m[name] += d
}

// Time runs fn and accumulates its duration into the named timer.
func (t *Timers) Time(name string, fn func()) {
	start := time.Now()
	fn()
	t.Add(name, time.Since(start))
}

// Get returns the accumulated duration for name (zero if never added).
func (t *Timers) Get(name string) time.Duration { return t.m[name] }

// Names returns the timer names in first-use order.
func (t *Timers) Names() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Total returns the sum of all timers.
func (t *Timers) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.m {
		sum += d
	}
	return sum
}

// String formats the timers as "name=duration" pairs in first-use order.
func (t *Timers) String() string {
	s := ""
	for _, name := range t.order {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%v", name, t.m[name])
	}
	return s
}

// Imbalance is the paper's load-imbalance measure (§5.3.1): the deviation of
// the maximum per-rank load from the average load, normalized by the average.
// Zero means perfectly balanced. It returns 0 for empty input or zero total.
func Imbalance(perRank []float64) float64 {
	if len(perRank) == 0 {
		return 0
	}
	var sum, maxv float64
	for _, w := range perRank {
		sum += w
		if w > maxv {
			maxv = w
		}
	}
	//parsivet:floateq — a sum of non-negative weights is exactly 0 iff every weight is
	if sum == 0 {
		return 0
	}
	avg := sum / float64(len(perRank))
	return (maxv - avg) / avg
}

// Item is one recorded unit of parallelizable work. Cost is in abstract cost
// units. Seg identifies the coarse-grained container the item belongs to
// (e.g. the tree-node index for a candidate split): the coarse distribution
// scheme of §3.2.3 assigns whole segments to ranks, while the paper's
// fine-grained scheme block-partitions the flat item list.
type Item struct {
	Cost float64
	Seg  int
}

// Phase is the recorded work of one parallel phase of the algorithm.
type Phase struct {
	Name  string
	Items []Item
	// Collectives is the number of collective operations the phase
	// performs — one per distributed decision, none for a replicated one;
	// each costs α·⌈log₂ p⌉ in the model. Words is the total number of
	// words moved through collectives, charged β each.
	Collectives int64
	Words       int64
	// SerialCost is work replicated on every rank — applying cluster state
	// transitions, and every candidate of a decision too cheap to
	// distribute (Distributed) — which does not shrink with p.
	SerialCost float64
	// PerSegmentBarrier marks phases whose items are produced by a
	// sequence of collective decisions (one segment per decision, e.g.
	// the candidate evaluations of one Gibbs step): ranks synchronize
	// after every segment, so each segment is block-partitioned
	// independently and the per-rank work is the sum over segments of the
	// rank's share. Without it, the whole item list is partitioned once.
	PerSegmentBarrier bool
}

// LogMLCost is the weight of one marginal-likelihood evaluation in cost units
// (one cell-statistics update = 1): the one exchange rate every layer prices
// its work items with, so costs from different layers add up and compare
// against distributeMinCost.
const LogMLCost = 8

// distributeMinCost is the least total candidate cost, in cost units, at which
// a collective decision is spread over ranks and pool workers. Below it every
// rank evaluates all candidates inline: a collective or a pool spawn costs more
// than the scoring it would divide (≈ 0.15 ms at this value on the goroutine
// runtime; the sweep is in EXPERIMENTS.md, the argument in DESIGN §19). At 0
// every decision is distributed, which is Algorithms 1–2 and 4 as printed.
const distributeMinCost = 32768

// Distributed reports whether a collective decision whose candidate
// evaluations cost `cost` units in total is partitioned over ranks and pool
// workers, rather than evaluated redundantly by every rank. cost must be a
// function of replicated state only, so every rank takes the same branch.
func Distributed(cost float64) bool { return cost >= distributeMinCost }

// AddDecision records one collective decision of n candidates — candidate i
// costing cost(i), all of them total — the way the engines execute it: when
// Distributed(total), as a new segment of n items, one collective and words
// words moved; otherwise as serial cost alone, because every rank evaluates
// every candidate and no message moves. It is the recording half of the rule
// Distributed is the execution half of (DESIGN §19).
func (ph *Phase) AddDecision(n int, cost func(int) float64, total float64, words int64) {
	if !Distributed(total) {
		ph.SerialCost += total
		return
	}
	// A phase's collectives so far number its distributed decisions, so
	// segments stay distinct across the runs that share the phase.
	seg := int(ph.Collectives)
	for i := 0; i < n; i++ {
		ph.Items = append(ph.Items, Item{Cost: cost(i), Seg: seg})
	}
	ph.Collectives++
	ph.Words += words
}

// TotalCost returns the sum of item costs plus the serial cost.
func (ph *Phase) TotalCost() float64 {
	sum := ph.SerialCost
	for _, it := range ph.Items {
		sum += it.Cost
	}
	return sum
}

// Workload is the complete work recording of one run, in phase order.
type Workload struct {
	Phases []*Phase
}

// AddPhase appends a phase and returns it for the caller to fill.
func (w *Workload) AddPhase(name string) *Phase {
	ph := &Phase{Name: name}
	w.Phases = append(w.Phases, ph)
	return ph
}

// Phase returns the phase with the given name, or nil.
func (w *Workload) Phase(name string) *Phase {
	for _, ph := range w.Phases {
		if ph.Name == name {
			return ph
		}
	}
	return nil
}

// TotalCost sums all phase costs.
func (w *Workload) TotalCost() float64 {
	var sum float64
	for _, ph := range w.Phases {
		sum += ph.TotalCost()
	}
	return sum
}

// Scheme selects how a phase's items are distributed over ranks.
type Scheme int

const (
	// StaticFine block-partitions the flat item list over ranks — the
	// paper's scheme (Algorithm 5, line 5).
	StaticFine Scheme = iota
	// StaticCoarse assigns whole segments to ranks round-robin — the
	// "simple parallelization scheme" §3.2.3 rejects for load imbalance.
	StaticCoarse
	// Dynamic deals items to ranks greedily in chunks, least-loaded rank
	// first — the dynamic load balancing named as future work in §6. It
	// models the engine's dynamic split exchange, where all p ranks take
	// chunks from one shared counter, so the rank that frees up first
	// takes the next chunk.
	Dynamic
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case StaticFine:
		return "static-fine"
	case StaticCoarse:
		return "static-coarse"
	case Dynamic:
		return "dynamic"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Model holds the calibration constants of the time model.
type Model struct {
	// SecPerCost converts cost units to seconds; calibrate with
	// Calibrate.
	SecPerCost float64
	// Alpha is the per-hop collective latency (seconds); Beta the
	// per-word transfer time (seconds). Defaults mirror an HDR100-class
	// interconnect like the paper's testbed.
	Alpha float64
	Beta  float64
	// DynamicChunk is the chunk size used by the Dynamic scheme.
	DynamicChunk int
}

// DefaultModel returns a model with interconnect constants representative of
// the paper's HDR100 InfiniBand testbed (≈1.5 µs collective hop latency,
// ≈1 ns per 8-byte word) and unit compute cost. Call Calibrate to set
// SecPerCost from a measured sequential run.
func DefaultModel() Model {
	return Model{SecPerCost: 1, Alpha: 1.5e-6, Beta: 1e-9, DynamicChunk: 64}
}

// Calibrate sets SecPerCost so that the workload's total cost corresponds to
// the measured sequential duration.
func (m *Model) Calibrate(w *Workload, measured time.Duration) {
	total := w.TotalCost()
	if total > 0 {
		m.SecPerCost = measured.Seconds() / total
	}
}

// PerRankWork returns each rank's total cost for the phase under the given
// scheme with p ranks.
func (m Model) PerRankWork(ph *Phase, p int, scheme Scheme) []float64 {
	work := make([]float64, p)
	switch scheme {
	case StaticFine:
		if ph.PerSegmentBarrier {
			// Partition each contiguous same-segment run separately;
			// a rank's work within a barrier window is max-combined
			// across ranks by the caller via the overall max, and the
			// sum over windows approximates the lock-step schedule.
			perSegmentWork(ph.Items, p, work)
			break
		}
		n := len(ph.Items)
		for k := 0; k < p; k++ {
			lo, hi := blockRange(n, p, k)
			for i := lo; i < hi; i++ {
				work[k] += ph.Items[i].Cost
			}
		}
	case StaticCoarse:
		for _, it := range ph.Items {
			work[seg(it)%p] += it.Cost
		}
	case Dynamic:
		chunk := m.DynamicChunk
		if chunk <= 0 {
			chunk = 64
		}
		// Greedy on-line dealing: each chunk goes to the currently
		// least-loaded rank, as the shared counter hands it to the first
		// rank to ask.
		for lo := 0; lo < len(ph.Items); lo += chunk {
			hi := min(lo+chunk, len(ph.Items))
			var c float64
			for _, it := range ph.Items[lo:hi] {
				c += it.Cost
			}
			k := argmin(work)
			work[k] += c
		}
	}
	for k := range work {
		work[k] += ph.SerialCost
	}
	return work
}

// perSegmentWork block-partitions each contiguous same-segment run of items
// independently and accumulates every rank's share. With near-uniform item
// costs inside a segment (the GaneSH case), rank 0 always holds a widest
// block, so max_k(work_k) equals the lock-step time Σ_seg max_k(share).
func perSegmentWork(items []Item, p int, work []float64) {
	for lo := 0; lo < len(items); {
		hi := lo + 1
		for hi < len(items) && items[hi].Seg == items[lo].Seg {
			hi++
		}
		n := hi - lo
		for k := 0; k < p; k++ {
			a, b := blockRange(n, p, k)
			for i := a; i < b; i++ {
				work[k] += items[lo+i].Cost
			}
		}
		lo = hi
	}
}

func seg(it Item) int {
	if it.Seg < 0 {
		return 0
	}
	return it.Seg
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// PhaseTime returns the modeled duration of one phase on p ranks: the
// maximum per-rank compute time plus the communication charge.
func (m Model) PhaseTime(ph *Phase, p int, scheme Scheme) time.Duration {
	var maxWork float64
	for _, w := range m.PerRankWork(ph, p, scheme) {
		maxWork = max(maxWork, w)
	}
	sec := maxWork * m.SecPerCost
	if p > 1 {
		sec += float64(ph.Collectives) * m.Alpha * ceilLog2(p)
		sec += float64(ph.Words) * m.Beta
	}
	return time.Duration(sec * float64(time.Second))
}

// Time returns the modeled end-to-end duration on p ranks.
func (m Model) Time(w *Workload, p int, scheme Scheme) time.Duration {
	var total time.Duration
	for _, ph := range w.Phases {
		total += m.PhaseTime(ph, p, scheme)
	}
	return total
}

// PhaseImbalance returns the §5.3.1 imbalance measure for one phase at p
// ranks under the scheme.
func (m Model) PhaseImbalance(ph *Phase, p int, scheme Scheme) float64 {
	return Imbalance(m.PerRankWork(ph, p, scheme))
}

func ceilLog2(p int) float64 {
	l := 0
	for v := p - 1; v > 0; v >>= 1 {
		l++
	}
	return float64(l)
}

// blockRange mirrors comm.BlockRange; duplicated to keep trace free of a
// dependency on the runtime package (comm depends on nothing, trace depends
// on nothing — engines depend on both).
func blockRange(n, size, rank int) (lo, hi int) {
	base := n / size
	rem := n % size
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

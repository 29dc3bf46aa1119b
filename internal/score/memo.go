// The exact logML memo. A caller that keeps producing blocks with identical
// sufficient statistics pays Kernel.LogML's data-dependent Log(βN) suffix
// again on every repeat. Memo caches the result keyed on the *exact
// integer* sufficient-statistic triple (N, Sum, SumSq), so a repeated block
// is served the bit-identical float64 the kernel produced the first time:
// integer keys mean there is no rounding in the lookup, only equality, which
// is what makes the cache exact (the same discipline as the kernel's integer
// count key, DESIGN §11/§16). No engine uses it any more: the split
// evaluator decides without one (DESIGN §23), and the reference engine
// (internal/ltbaseline) scores through the kernel directly, as the naive
// mirror it models would. Its one remaining user is the benchmark's
// score.memo_logml_ns probe.
//
// The cache is direct-mapped with power-of-two slots and overwrites on
// collision: a single probe and a single three-word compare per lookup, no
// chains, no eviction bookkeeping. It is deliberately single-owner (not
// safe for concurrent use) so the hot path needs no atomics and the
// hit/miss counters are plain int64s.

package score

// DefaultMemoSlots is the slot count NewMemo uses when given size ≤ 0:
// 1024 slots × 32 bytes keeps one worker's cache inside L1.
const DefaultMemoSlots = 1024

// memoSlot is one direct-mapped cache slot. key.N == 0 marks an empty
// slot — LogML answers empty blocks before the lookup, so no stored key
// ever has N == 0.
type memoSlot struct {
	key Stats
	val float64
}

// Memo is an exact memo cache over one Kernel's LogML. Not safe for
// concurrent use: one goroutine owns it.
type Memo struct {
	kern  *Kernel
	mask  uint64
	slots []memoSlot
	// hits/misses/zero are plain counters (single-owner): hits were served
	// from a slot, misses went through to the kernel, zero were empty-block
	// early returns.
	hits, misses, zero int64
}

// NewMemo returns a memo over k with at least size slots (rounded up to a
// power of two); size ≤ 0 selects DefaultMemoSlots.
func NewMemo(k *Kernel, size int) *Memo {
	if size <= 0 {
		size = DefaultMemoSlots
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Memo{kern: k, mask: uint64(n - 1), slots: make([]memoSlot, n)}
}

// Slots returns the slot count.
func (m *Memo) Slots() int { return len(m.slots) }

// Hits, Misses and Zero return the lookup counters: slot serves, kernel
// pass-throughs, and empty-block early returns.
func (m *Memo) Hits() int64   { return m.hits }
func (m *Memo) Misses() int64 { return m.misses }
func (m *Memo) Zero() int64   { return m.zero }

// mixMemoKey hashes the exact triple into a slot index distribution. Any
// deterministic mix is correct (a bad one only costs hit rate, never
// bits); this is three odd-constant multiplies and a fold.
func mixMemoKey(s Stats) uint64 {
	h := uint64(s.N)*0x9e3779b97f4a7c15 + uint64(s.Sum)*0xff51afd7ed558ccd + uint64(s.SumSq)*0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// LogML returns the kernel's LogML(s) — bit-identical, served from the
// cache when the exact triple was seen before. Empty blocks return 0
// without touching the cache or the kernel, mirroring Kernel.LogML's
// early return.
func (m *Memo) LogML(s Stats) float64 {
	if s.N == 0 {
		m.zero++
		return 0
	}
	sl := &m.slots[mixMemoKey(s)&m.mask]
	if sl.key == s {
		m.hits++
		return sl.val
	}
	m.misses++
	v := m.kern.LogML(s)
	sl.key, sl.val = s, v
	return v
}

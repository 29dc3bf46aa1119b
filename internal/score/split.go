// The certified split decision. The parent-split bootstrap asks one question
// per live threshold per resample — does splitting the resample T into L and
// R raise the score — and consumes one bit of the answer, the sign of
//
//	δ = Kernel.LogML(L) + Kernel.LogML(R) − totML.
//
// After the kernel (kernel.go) the only transcendental left in each term is
// ln βN. SplitImproves is Ziv's rounding test applied to that sign: evaluate
// δ with a cheap logarithm whose distance from math.Log is bounded, return
// the sign when it cannot depend on that distance, and evaluate the exact
// expression otherwise. The bit returned is the exact expression's in both
// cases, so networks stay byte-identical; DESIGN §23 derives the two
// constants below term by term.

package score

import "math"

const (
	// logTabBits is the number of leading mantissa bits that index logTab:
	// [1, 2) is cut into 128 intervals of width 2⁻⁷.
	logTabBits = 7

	// fastLogMaxExp bounds the binary exponents fastLog accepts: arguments in
	// [2⁻⁶⁴, 2⁶⁴), so |ln x| < 44.4 and the roundings that scale with the
	// result stay far below the truncation term. βN lies between β₀ and
	// about MaxBlockCells·(MaxAbsValue+|μ₀|)², so only a prior no data set
	// calls for leaves the range — and is then scored exactly.
	fastLogMaxExp = 64

	// fastLogEps bounds |fastLog(x) − math.Log(x)| over fastLog's domain. The
	// derived bound is 1.98·10⁻¹³ (DESIGN §23: truncation of the degree-4
	// series 1.79·10⁻¹³; the roundings of the table, of k·ln 2 and of the two
	// sums, and math.Log's own last place, 1.9·10⁻¹⁴ together); the constant
	// is the next power of two above twice that.
	fastLogEps = 0x1p-41

	// sumSlack is the coefficient of the rounding term of the margin, in
	// units of the magnitudes summed: evaluating one side's four operations
	// in float64 twice (once with each logarithm) and the sum of the two
	// sides twice commits at most 10 roundings of 2⁻⁵³ relative to
	// |c1|+|αN·ln βN|+|c2|+|c3|; 16 covers them with the second-order terms
	// and the rounding of the margin itself. Fusing c1 − αN·ln βN into one
	// operation drops a rounding, so the bound holds with or without FMA
	// contraction.
	sumSlack = 16 * 0x1p-53
)

// logTabEntry describes one interval [1+i/128, 1+(i+1)/128) of the mantissa
// by its midpoint c: ln is ln c, and inv is 2⁻⁵²/c, the factor that turns
// the integer distance of a mantissa from c's into (m − c)/c.
type logTabEntry struct{ inv, ln float64 }

var logTab = newLogTable()

// newLogTable fills logTab. The midpoints 1 + (2i+1)/256 are exact float64
// values; their logarithms are math.Log's, within one unit in the last place.
func newLogTable() (t [1 << logTabBits]logTabEntry) {
	for i := range t {
		c := 1 + (float64(i)+0.5)/float64(len(t))
		t[i] = logTabEntry{inv: 0x1p-52 / c, ln: math.Log(c)}
	}
	return t
}

// fastLog returns an approximation of math.Log(x) within fastLogEps, or NaN
// when x is outside [2⁻⁶⁴, 2⁶⁴) — zero, negative, subnormal, huge, infinite
// or NaN. With x = 2ᵏ·m, m in [1, 2), and c the midpoint of m's table
// interval,
//
//	ln x = k·ln 2 + ln c + ln(1+r),  r = (m − c)/c,  |r| ≤ 1/257,
//
// and ln(1+r) is its series through r⁴. m − c is formed exactly, as the
// difference of the two mantissas' integer bits.
func fastLog(x float64) float64 {
	b := math.Float64bits(x)
	// Sign and biased exponent in one compare: a set sign bit, a zero or a
	// maximal exponent field all land outside the window.
	k := b>>52 - (1023 - fastLogMaxExp)
	if k >= 2*fastLogMaxExp {
		return math.NaN()
	}
	const lowBits = 52 - logTabBits
	t := &logTab[b>>lowBits&(1<<logTabBits-1)]
	r := float64(int64(b&(1<<lowBits-1))-1<<(lowBits-1)) * t.inv
	r2 := r * r
	q := r - 0.5*r2 + r2*r*(1.0/3-0.25*r)
	return float64(int64(k)-fastLogMaxExp)*math.Ln2 + (t.ln + q)
}

// SplitImproves reports whether splitting a block into l and r raises the
// score over totML, the unsplit block's Kernel.LogML: improves is exactly
//
//	k.LogML(l) + k.LogML(r) − totML > 0
//
// for every input. certified tells which way it was decided: true when the
// approximate δ̃ — the same float64 operations on the same βN, with fastLog
// in place of math.Log — lies further from zero than
//
//	margin = fastLogEps·(αL+αR) + sumSlack·(G(l)+G(r)),
//	G = |c1| + |αN·ln βN| + |c2| + |c3|,
//
// which bounds |δ̃ − δ| (the α-weighted error of the two logarithms plus the
// roundings of both evaluations), so δ has δ̃'s sign; false when the exact
// expression was evaluated instead — a near tie, a count outside the table,
// an empty side, or a βN that fastLog refuses: a NaN or infinite δ̃ or margin
// fails both comparisons.
func (k *Kernel) SplitImproves(l, r Stats, totML float64) (improves, certified bool) {
	// 1 ≤ N < len(tab), both sides, as one unsigned compare each.
	if n := uint64(len(k.tab)) - 1; uint64(l.N)-1 < n && uint64(r.N)-1 < n {
		el, er := &k.tab[l.N], &k.tab[r.N]
		al, c3l := k.counted(l.N)
		ar, c3r := k.counted(r.N)
		pl, pr := al*fastLog(k.betaN(l)), ar*fastLog(k.betaN(r))
		delta := (el.c1 - pl + el.c2 - c3l) + (er.c1 - pr + er.c2 - c3r) - totML
		magL := math.Abs(el.c1) + math.Abs(el.c2) + math.Abs(c3l)
		magR := math.Abs(er.c1) + math.Abs(er.c2) + math.Abs(c3r)
		margin := fastLogEps*(al+ar) + sumSlack*(magL+math.Abs(pl)+magR+math.Abs(pr))
		if delta > margin {
			return true, true
		}
		if delta < -margin {
			return false, true
		}
	}
	return k.LogML(l)+k.LogML(r)-totML > 0, false
}

// Decision is one lane of Kernel.SplitsImprove: the bit SplitImproves
// returns, and whether its certificate decided it.
type Decision uint8

const (
	// Improves is the decision's bit: splitting raises the score.
	Improves Decision = 1 << iota
	// Certified says the approximate δ̃ cleared the margin, so no exact
	// Kernel.LogML was evaluated for the lane.
	Certified
)

// Lane is one decision of Kernel.SplitsImprove: the indices of its left
// block and of its total in the call's blocks.
type Lane struct{ Left, Total int32 }

// SplitsImprove decides the thresholds of several resamples at once: for
// every lane i, with l = bkt[lanes[i].Left] and tot = bkt[lanes[i].Total],
// dst[i] holds exactly what
//
//	k.SplitImproves(l, tot − l, totML[lanes[i].Total])
//
// returns, Improves for its bit and Certified for its path; fallbacks counts
// the uncertified lanes, and misses their Kernel.LogML calls outside the
// table: each uncertified lane's l and r whose count is outside. The totals'
// own scores are the caller's (the evaluator takes them from one
// LogMLBatch call), so every lane reads its own total and its totML, and
// lanes of different resamples share a call. dst must have len(lanes)
// elements, every index must index bkt, and every Total totML. On amd64 with
// AVX2 one call of splitsAVX2 certifies the lanes two to a vector with
// SplitImproves' operations in its order (DESIGN §29); the lanes it cannot
// certify are decided here by the exact expression. Everywhere else it is
// the loop over SplitImproves, which is the reference.
func (k *Kernel) SplitsImprove(dst []Decision, bkt []Stats, lanes []Lane, totML []float64) (fallbacks, misses int) {
	dst = dst[:len(lanes)]
	if !useKernel || len(lanes) == 0 {
		for i, ln := range lanes {
			l, tot := bkt[ln.Left], bkt[ln.Total]
			improves, certified := k.SplitImproves(l, tot.minus(l), totML[ln.Total])
			dst[i] = decision(improves, certified)
			if !certified {
				fallbacks++
				misses += k.miss(l) + k.miss(tot.minus(l))
			}
		}
		return fallbacks, misses
	}
	for _, ln := range lanes {
		_, _, _ = bkt[ln.Left], bkt[ln.Total], totML[ln.Total] // the kernel loads without bounds checks
	}
	if fallbacks = splitsKernel(k, dst, bkt, lanes, totML); fallbacks > 0 {
		for i, d := range dst {
			if d&Certified == 0 {
				ln := lanes[i]
				l, tot := bkt[ln.Left], bkt[ln.Total]
				dst[i] = decision(k.LogML(l)+k.LogML(tot.minus(l))-totML[ln.Total] > 0, false)
				misses += k.miss(l) + k.miss(tot.minus(l))
			}
		}
	}
	return fallbacks, misses
}

// decision packs SplitImproves' two results.
func decision(improves, certified bool) (d Decision) {
	if improves {
		d |= Improves
	}
	if certified {
		d |= Certified
	}
	return d
}

// minus is the block s without its part l.
func (s Stats) minus(l Stats) Stats {
	return Stats{N: s.N - l.N, Sum: s.Sum - l.Sum, SumSq: s.SumSq - l.SumSq}
}

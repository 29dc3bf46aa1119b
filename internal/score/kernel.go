// The precomputed exact scoring kernel of the posterior hot loop. The
// parent-split bootstrap evaluates LogML millions of times against one
// fixed prior, and every call pays two Lgamma and three Log evaluations —
// yet four of those five transcendentals depend only on the block's integer
// count N, not on its data. Kernel tables them per count once — folded
// together with every other count-only float64 operation of the score —
// so the hot path keeps a single count-and-data-dependent Log(βN).
//
// # Exactness
//
// The bit-identity discipline (package doc) extends to this cache. Split
// Prior.LogML's evaluation into its count-only prefix operations and the
// data-dependent remainder: tabling works because
//
//  1. each table entry is produced at construction by the *same* float64
//     operation sequence, on the same operand bits, that Prior.LogML would
//     perform at call time — a float64 operation has one correctly-rounded
//     result, so the entry holds the identical bits; and
//  2. the data-dependent operations that remain at call time are an
//     unchanged suffix of Prior.LogML's left-to-right evaluation, written
//     with the same expression shape so the compiler makes the same
//     contraction (FMA) choices in both bodies.
//
// Substituting operands with identical bits into an identical operation
// sequence cannot change any downstream bit. Counts beyond the table fall
// back to Prior.LogML itself. TestKernelLogMLBitIdentical and
// FuzzKernelLogML pin the equivalence; DESIGN.md §11 spells out the
// argument.

package score

import (
	"math"
	"sync/atomic"
)

// MaxKernelTableN caps the kernel's table length (one kernelEntry per
// count). MaxBlockCells bounds every count the engines can produce, so the
// cap only guards against pathological constructor arguments.
const MaxKernelTableN = MaxBlockCells

// kernelEntry holds every count-only intermediate of Prior.LogML for one
// block count n, each computed at construction with the exact operation
// sequence the direct evaluation performs.
type kernelEntry struct {
	// c1 = (lnΓ(α₀+n/2) − lnΓ(α₀)) + α₀·ln β₀ — the score's count-only
	// leading terms, folded left to right exactly as Prior.LogML folds them.
	c1 float64
	// c2 = 0.5·(ln λ₀ − ln(λ₀+n)); c3 = (n/2)·ln 2π.
	c2, c3 float64
	// alphaN = α₀ + n/2, the multiplier of the data-dependent ln βN.
	alphaN float64
	// lamN = λ₀·n and twoLam = 2·(λ₀+n), the count-only factors of βN's
	// shrinkage term λ₀·n·(mean−μ₀)² / (2·λN).
	lamN, twoLam float64
	// mag = |c1|+|c2|+|c3|, the count-only part of the magnitude that
	// SplitImproves' rounding margin is proportional to. Not part of the
	// score.
	mag float64
}

// Kernel is a precomputed, exact re-expression of one Prior's LogML:
// Kernel.LogML(s) is bit-equal to Prior.LogML(s) for every Stats value,
// with the count-only terms served from tables instead of recomputed per
// call. Safe for concurrent use.
type Kernel struct {
	prior Prior
	tab   []kernelEntry
	// lanes holds the prior and the table length once per lane for the
	// split kernel (split_amd64.s) and the fused block scoring
	// (batch_amd64.s), which recompute an entry's αN, λ₀·n, 2·(λ₀+n) and c3
	// from the count with the operations below and load only c1 and c2.
	lanes kernelLanes
	// fallbacks counts LogML calls whose N fell outside the table (served
	// by Prior.LogML, still exact). Atomic: the splits pool shares one
	// kernel across workers. The table-hit path never touches it.
	fallbacks atomic.Int64
}

// NewKernel precomputes the scoring kernel of p for block counts 0…maxN.
// Calls with larger counts stay correct via the Prior.LogML fallback.
func NewKernel(p Prior, maxN int) *Kernel {
	if maxN < 0 {
		maxN = 0
	}
	if maxN > MaxKernelTableN {
		maxN = MaxKernelTableN
	}
	k := &Kernel{
		prior: p,
		tab:   make([]kernelEntry, maxN+1),
	}
	lg0, _ := math.Lgamma(p.Alpha0)
	logBeta0 := math.Log(p.Beta0)
	logLambda0 := math.Log(p.Lambda0)
	log2Pi := math.Log(2 * math.Pi)
	for i := range k.tab {
		n := float64(i)
		// Every expression below mirrors the corresponding Prior.LogML
		// intermediate exactly — same operands, same operation order — so
		// each entry is the bit the direct computation would have produced.
		lambdaN := p.Lambda0 + n
		alphaN := p.Alpha0 + n/2
		lgA, _ := math.Lgamma(alphaN)
		e := kernelEntry{
			c1:     lgA - lg0 + p.Alpha0*logBeta0,
			c2:     0.5 * (logLambda0 - math.Log(lambdaN)),
			c3:     n / 2 * log2Pi,
			alphaN: alphaN,
			lamN:   p.Lambda0 * n,
			twoLam: 2 * lambdaN,
		}
		e.mag = math.Abs(e.c1) + math.Abs(e.c2) + math.Abs(e.c3)
		k.tab[i] = e
	}
	k.lanes = newKernelLanes(p, log2Pi, len(k.tab))
	return k
}

// Prior returns the prior the kernel was built for.
func (k *Kernel) Prior() Prior { return k.prior }

// TableLen returns the number of tabled counts (maxN+1 after clamping).
func (k *Kernel) TableLen() int { return len(k.tab) }

// Fallbacks returns how many LogML calls fell outside the table since
// construction — the cache-miss counter the observability layer exposes.
func (k *Kernel) Fallbacks() int64 { return k.fallbacks.Load() }

// LogML returns the normal-gamma marginal log-likelihood of the block whose
// sufficient statistics are s, bit-equal to Prior.LogML(s). The remaining
// operations are the data-dependent suffix of Prior.LogML's evaluation,
// kept in the same expression shape: Go may contract a*b+c into an FMA, so
// re-associating the expression could round differently even with identical
// operands.
func (k *Kernel) LogML(s Stats) float64 {
	if s.N == 0 {
		return 0
	}
	if s.N < 0 || s.N >= int64(len(k.tab)) {
		k.fallbacks.Add(1)
		return k.prior.LogML(s)
	}
	e := &k.tab[s.N]
	return e.c1 - e.alphaN*math.Log(k.betaN(e, s)) + e.c2 - e.c3
}

// LogMLBatch stores k.LogML(stats[i]) in dst[i] for every i, bit for bit;
// dst must have len(stats) elements. On amd64 with AVX2 it is one fused
// pass, four blocks at a time (DESIGN §30): every lane converts the block's
// integers, forms βN with betaN's operations, takes its logarithm with
// math.Log's amd64 code and folds LogML's suffix, all with the scalar
// code's IEEE operations; empty blocks score 0 and out-of-table counts take
// LogML's fallback. Everywhere else it is LogML block by block, which is
// the reference.
func (k *Kernel) LogMLBatch(dst []float64, stats []Stats) {
	dst = dst[:len(stats)]
	if !useKernel || len(stats) == 0 {
		for i, s := range stats {
			dst[i] = k.LogML(s)
		}
		return
	}
	if fallbacks := logmlKernel(k, dst, stats); fallbacks > 0 {
		n := int64(len(k.tab))
		for i, s := range stats {
			if s.N < 0 || s.N >= n {
				dst[i] = k.prior.LogML(s)
			}
		}
		k.fallbacks.Add(int64(fallbacks))
	}
}

// betaN is the data-dependent βN of a non-empty in-table block, e its
// count's entry: Prior.LogML's operations on the same operands. LogML and
// SplitImproves both take βN from here, so the certified decision and the
// exact score it stands for differ in one value only, the logarithm of this
// result — in particular the cancellation in sumsq − sum²/n is common to
// both and costs the decision's error budget nothing.
func (k *Kernel) betaN(e *kernelEntry, s Stats) float64 {
	n := float64(s.N)
	sum := float64(s.Sum) / ValueScale
	sumsq := float64(s.SumSq) / (ValueScale * ValueScale)
	mean := sum / n
	ss := sumsq - sum*sum/n
	if ss < 0 {
		ss = 0 // guard the analytic non-negativity against rounding
	}
	dm := mean - k.prior.Mu0
	return k.prior.Beta0 + 0.5*ss + e.lamN*dm*dm/e.twoLam
}

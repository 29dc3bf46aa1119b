// The precomputed exact scoring kernel of the posterior hot loop. The
// parent-split bootstrap evaluates LogML millions of times against one
// fixed prior, and every call pays two Lgamma and three Log evaluations —
// yet four of those five transcendentals depend only on the block's integer
// count N, not on its data. Kernel tables them per count once, as two
// values, so the hot path keeps a single count-and-data-dependent Log(βN)
// beside a few arithmetic operations on the count.
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
//     result, so the entry holds the identical bits;
//  2. the count-only terms that need no transcendental (αN, λ₀·n,
//     2·(λ₀+n), n/2·ln 2π) are recomputed at call time by those same
//     operations on the same operands, each product rounded explicitly
//     (float64(…)) so that no architecture fuses it into a later addition;
//     and
//  3. the data-dependent operations that remain at call time are an
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

import "math"

// MaxKernelTableN caps the kernel's table length (one kernelEntry per
// count). MaxBlockCells bounds every count the engines can produce, so the
// cap only guards against pathological constructor arguments.
const MaxKernelTableN = MaxBlockCells

// kernelEntry holds the count-only terms of Prior.LogML for one block count
// n that need a transcendental, each computed at construction with the
// exact operation sequence the direct evaluation performs. It is the one
// declaration of the table's format: the amd64 kernels take its size and
// offsets from go_asm.h.
type kernelEntry struct {
	// c1 = (lnΓ(α₀+n/2) − lnΓ(α₀)) + α₀·ln β₀ — the score's count-only
	// leading terms, folded left to right exactly as Prior.LogML folds them.
	c1 float64
	// c2 = 0.5·(ln λ₀ − ln(λ₀+n)).
	c2 float64
}

// Kernel is a precomputed, exact re-expression of one Prior's LogML:
// Kernel.LogML(s) is bit-equal to Prior.LogML(s) for every Stats value,
// with the count-only terms that need a transcendental served from a table
// of two float64 per count and the others (αN, λ₀·n, 2·(λ₀+n), n/2·ln 2π)
// recomputed from the count with Prior.LogML's operations. It is read-only
// once NewKernel returns, so one learn builds one for every rank, worker and
// restarted world; it counts nothing, and SplitsImprove returns its misses.
type Kernel struct {
	prior Prior
	// log2Pi is ln 2π, the factor of the count-only term c3 = n/2·ln 2π.
	log2Pi float64
	tab    []kernelEntry
	// lanes holds the prior and the table length once per lane for the
	// split kernel (split_amd64.s) and the fused block scoring
	// (batch_amd64.s), which recompute αN, λ₀·n, 2·(λ₀+n) and c3 from the
	// count as Kernel.LogML does.
	lanes kernelLanes
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
		prior:  p,
		log2Pi: math.Log(2 * math.Pi),
		tab:    make([]kernelEntry, maxN+1),
	}
	lg0, _ := math.Lgamma(p.Alpha0)
	logBeta0 := math.Log(p.Beta0)
	logLambda0 := math.Log(p.Lambda0)
	for i := range k.tab {
		n := float64(i)
		// Every expression below mirrors the corresponding Prior.LogML
		// intermediate exactly — same operands, same operation order — so
		// each entry is the bit the direct computation would have produced.
		lgA, _ := math.Lgamma(p.Alpha0 + n/2)
		k.tab[i] = kernelEntry{
			c1: lgA - lg0 + p.Alpha0*logBeta0,
			c2: 0.5 * (logLambda0 - math.Log(p.Lambda0+n)),
		}
	}
	k.lanes = newKernelLanes(p, k.log2Pi, len(k.tab))
	return k
}

// Prior returns the prior the kernel was built for.
func (k *Kernel) Prior() Prior { return k.prior }

// TableLen returns the number of tabled counts (maxN+1 after clamping).
func (k *Kernel) TableLen() int { return len(k.tab) }

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
	if k.miss(s) != 0 {
		return k.prior.LogML(s)
	}
	e := &k.tab[s.N]
	alphaN, c3 := k.counted(s.N)
	return e.c1 - alphaN*math.Log(k.betaN(s)) + e.c2 - c3
}

// counted returns the count-only terms of a block of n cells that need no
// transcendental, αN = α₀ + n/2 and c3 = n/2·ln 2π, with Prior.LogML's
// operations; the product is rounded explicitly, as a table entry would
// hold it, so that no architecture fuses it into the subtraction that uses
// it.
func (k *Kernel) counted(n int64) (alphaN, c3 float64) {
	half := float64(n) / 2
	return k.prior.Alpha0 + half, float64(half * k.log2Pi)
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
		for i, s := range stats {
			if k.miss(s) != 0 {
				dst[i] = k.prior.LogML(s)
			}
		}
	}
}

// miss is 1 when LogML scores s through Prior.LogML, a count below zero or
// past the table, and 0 otherwise; an empty block is no miss.
func (k *Kernel) miss(s Stats) int {
	if uint64(s.N) >= uint64(len(k.tab)) {
		return 1
	}
	return 0
}

// betaN is the data-dependent βN of a non-empty in-table block: Prior.LogML's
// operations on the same operands, with the count-only factors λ₀·n and
// 2·(λ₀+n) rounded explicitly as a table entry would hold them. LogML and
// SplitImproves both take βN from here, so the certified decision and the
// exact score it stands for differ in one value only, the logarithm of this
// result — in particular the cancellation in sumsq − sum²/n is common to
// both and costs the decision's error budget nothing.
func (k *Kernel) betaN(s Stats) float64 {
	n := float64(s.N)
	sum := float64(s.Sum) / ValueScale
	sumsq := float64(s.SumSq) / (ValueScale * ValueScale)
	mean := sum / n
	ss := sumsq - sum*sum/n
	if ss < 0 {
		ss = 0 // guard the analytic non-negativity against rounding
	}
	dm := mean - k.prior.Mu0
	lamN, twoLam := float64(k.prior.Lambda0*n), float64(2*(k.prior.Lambda0+n))
	return k.prior.Beta0 + 0.5*ss + lamN*dm*dm/twoLam
}

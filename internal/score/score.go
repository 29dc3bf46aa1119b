// Package score implements the decomposable Bayesian scoring function that
// drives every task of the Lemon-Tree pipeline (Joshi et al. 2008; §2.2 of
// the paper). A co-clustering is scored as the sum, over all
// (variable-cluster × observation-cluster) blocks, of the normal-gamma
// marginal log-likelihood of the block's cells; tree-merge scores and
// parent-split scores reuse the same block score on observation subsets.
//
// # Exactness discipline
//
// The paper verifies that its optimized engine, the original Lemon-Tree, and
// the parallel implementation at every processor count all learn *exactly*
// the same network (§4.1–4.2, §5.2.1). Floating-point sufficient statistics
// cannot deliver that: incrementally maintained sums drift from recomputed
// ones. This package therefore quantizes expression values to a 2⁻¹⁶ grid
// at ingestion and maintains sufficient statistics (count, Σx, Σx²) in exact
// int64 fixed point. Incremental and from-scratch statistics are then
// bit-identical, so the optimized engine, the naive rescanning baseline, and
// the parallel engine at any p produce the same scores and hence the same
// network. Sampling weights derived from scores are quantized to uint64
// (integer sums are associative), which makes collective weighted sampling
// independent of reduction order.
package score

import (
	"fmt"
	"math"

	"parsimone/internal/dataset"
)

// FracBits is the number of fractional bits of the fixed-point value grid.
const FracBits = 16

// ValueScale is the fixed-point scale factor, 2^FracBits.
const ValueScale = 1 << FracBits

// MaxAbsValue is the clipping bound applied at quantization. Standardized
// expression values essentially never exceed 8 standard deviations; the
// bound keeps Σx² within int64 for blocks of up to 2^25 cells.
const MaxAbsValue = 8.0

// MaxBlockCells is the largest block size for which the Σx² accumulator is
// guaranteed not to overflow given MaxAbsValue.
const MaxBlockCells = 1 << 25

// MaxAbsCell is the largest magnitude Quantize returns, MaxAbsValue on the
// grid: 8·2¹⁶ = 2¹⁹. Every cell therefore fits an int32, and a cell's square,
// at most 2³⁸, an int64 — the bound the lanes that square cells as signed
// 32-bit integers rely on.
const MaxAbsCell = MaxAbsValue * ValueScale

// Quantize maps a raw value onto the fixed-point grid, clipping to
// ±MaxAbsValue; NaN maps to 0. The result lies in [−MaxAbsCell, MaxAbsCell].
// The NaN case is explicit because int64 of a NaN is platform-dependent in
// Go (amd64 yields −2⁶³, arm64 0). Data sets refuse NaN cells, so only a
// raw observation vector to predict from can carry one.
func Quantize(x float64) int64 {
	if math.IsNaN(x) {
		return 0
	}
	if x > MaxAbsValue {
		x = MaxAbsValue
	} else if x < -MaxAbsValue {
		x = -MaxAbsValue
	}
	return int64(math.RoundToEven(x * ValueScale))
}

// Dequantize maps a fixed-point value back to float64.
func Dequantize(q int64) float64 { return float64(q) / ValueScale }

// QData is a data set quantized for exact scoring. Cells is row-major like
// dataset.Data.Values. A cell is an int32: Quantize's results lie within
// ±MaxAbsCell = ±2¹⁹, so the narrower type holds every one of them and
// halves the replicated matrix. Every cell must lie within ±MaxAbsCell.
// QuantizeData guarantees it; a QData built otherwise must keep it too,
// because the attach-var gather kernel sums cells in 32-bit lanes and is
// exact only within that bound (cluster's CheckInvariants checks it).
type QData struct {
	Cells []int32
	N, M  int
}

// QuantizeData quantizes every cell of d.
func QuantizeData(d *dataset.Data) *QData {
	q := &QData{Cells: make([]int32, len(d.Values)), N: d.N, M: d.M}
	for i, v := range d.Values {
		q.Cells[i] = int32(Quantize(v))
	}
	return q
}

// At returns the quantized value of variable i in observation j.
func (q *QData) At(i, j int) int64 { return int64(q.Cells[i*q.M+j]) }

// Row returns variable i's quantized observation vector, aliasing storage.
func (q *QData) Row(i int) []int32 { return q.Cells[i*q.M : (i+1)*q.M] }

// Stats are exact sufficient statistics of a multiset of quantized values:
// the count, the sum (scale 2^FracBits), and the sum of squares (scale
// 2^(2·FracBits)). The zero value is the empty multiset.
type Stats struct {
	N     int64
	Sum   int64
	SumSq int64
}

// Add inserts one quantized value.
func (s *Stats) Add(q int64) {
	s.N++
	s.Sum += q
	s.SumSq += q * q
}

// Remove deletes one quantized value; exact because the arithmetic is
// integer. Removing a value never added corrupts the statistics silently,
// as with any sufficient-statistics sketch.
func (s *Stats) Remove(q int64) {
	s.N--
	s.Sum -= q
	s.SumSq -= q * q
}

// Merge adds all of other's values.
func (s *Stats) Merge(other Stats) {
	s.N += other.N
	s.Sum += other.Sum
	s.SumSq += other.SumSq
}

// Unmerge removes all of other's values.
func (s *Stats) Unmerge(other Stats) {
	s.N -= other.N
	s.Sum -= other.Sum
	s.SumSq -= other.SumSq
}

// Plus returns the union of two disjoint multisets' statistics.
func (s Stats) Plus(other Stats) Stats {
	return Stats{N: s.N + other.N, Sum: s.Sum + other.Sum, SumSq: s.SumSq + other.SumSq}
}

// StatsOf computes the statistics of a slice of quantized values: a row of
// cells, or int64 values such as Quantize returns.
func StatsOf[T int32 | int64](qs []T) Stats {
	var s Stats
	for _, q := range qs {
		s.Add(int64(q))
	}
	return s
}

// Prior is the normal-gamma prior (μ₀, λ₀, α₀, β₀) over each block's mean
// and precision.
type Prior struct {
	Mu0, Lambda0, Alpha0, Beta0 float64
}

// DefaultPrior returns the weakly informative prior used throughout: zero
// prior mean, 0.1 pseudo-observations, and a broad precision prior.
func DefaultPrior() Prior {
	return Prior{Mu0: 0, Lambda0: 0.1, Alpha0: 0.1, Beta0: 0.1}
}

// Validate reports a configuration error for non-positive hyperparameters.
func (p Prior) Validate() error {
	if p.Lambda0 <= 0 || p.Alpha0 <= 0 || p.Beta0 <= 0 {
		return fmt.Errorf("score: prior λ₀, α₀, β₀ must be positive, got %+v", p)
	}
	return nil
}

// LogML returns the normal-gamma marginal log-likelihood of the block whose
// sufficient statistics are s:
//
//	λN = λ₀+N, αN = α₀+N/2
//	βN = β₀ + ½·Σ(x−x̄)² + λ₀N(x̄−μ₀)²/(2λN)
//	logML = lnΓ(αN) − lnΓ(α₀) + α₀·ln β₀ − αN·ln βN + ½(ln λ₀ − ln λN) − (N/2)·ln 2π
//
// The empty block scores zero, which makes the total score decomposable over
// any partition.
func (p Prior) LogML(s Stats) float64 {
	if s.N == 0 {
		return 0
	}
	n := float64(s.N)
	sum := float64(s.Sum) / ValueScale
	sumsq := float64(s.SumSq) / (ValueScale * ValueScale)
	mean := sum / n
	ss := sumsq - sum*sum/n
	if ss < 0 {
		ss = 0 // guard the analytic non-negativity against rounding
	}
	lambdaN := p.Lambda0 + n
	alphaN := p.Alpha0 + n/2
	dm := mean - p.Mu0
	betaN := p.Beta0 + 0.5*ss + p.Lambda0*n*dm*dm/(2*lambdaN)
	lgA, _ := math.Lgamma(alphaN)
	lg0, _ := math.Lgamma(p.Alpha0)
	return lgA - lg0 +
		p.Alpha0*math.Log(p.Beta0) - alphaN*math.Log(betaN) +
		0.5*(math.Log(p.Lambda0)-math.Log(lambdaN)) -
		n/2*math.Log(2*math.Pi)
}

// WeightBits is the resolution of quantized sampling weights.
const WeightBits = 32

// MaxWeight is the quantized weight of the maximum log-score, 2^WeightBits.
const MaxWeight = uint64(1) << WeightBits

// QuantizeWeights converts log-scores to integer sampling weights:
// wᵢ = round(exp(sᵢ − max) · 2^WeightBits). The largest score always maps to
// a positive weight, so a selection is possible whenever scores exist.
// Entries with NaN score or score −Inf map to zero weight; +Inf entries (and
// anything whose scaled weight would exceed it) clamp to MaxWeight. The
// clamp matters for determinism: when the maximum is +Inf, sᵢ − max is NaN
// for that entry, and uint64(NaN) is platform-dependent in Go — amd64 yields
// a huge garbage value while arm64 yields 0, so the same run would select
// different candidates on different machines. The weights are what the
// collective weighted sampling consumes; because they are integers, partial
// sums combine associatively and selections are identical for every
// processor count.
func QuantizeWeights(logScores []float64) []uint64 {
	return QuantizeWeightsInto(make([]uint64, len(logScores)), logScores)
}

// zeroWeightBelow is where the weight step stops taking exponentials: a
// weight round(exp(d)·2^WeightBits) is 0 iff exp(d) ≤ 2^−(WeightBits+1),
// that is d ≤ −(WeightBits+1)·ln 2 ≈ −22.87, and exp(−23)·2^WeightBits ≈
// 0.44 rounds to 0 with a 13 % margin. TestQuantizationEnvelope pins the
// floor; TestQuantizeWeightsSkipBitIdentical sweeps the skip's edge.
const zeroWeightBelow = -23

// QuantizeWeightsInto is QuantizeWeights writing into ws, which must have
// len(logScores) elements and is returned; a per-decision caller reuses one
// buffer across calls. On amd64 with AVX2 and FMA the weights come from one
// vector kernel (DESIGN §31), elsewhere from the portable loop, which is
// the reference; both take the exponential from the package's exp and give
// the same bits.
func QuantizeWeightsInto(ws []uint64, logScores []float64) []uint64 {
	ws = ws[:len(logScores)]
	if useKernel && weightKernel && len(logScores) > 0 {
		quantizeKernel(ws, logScores)
		return ws
	}
	return quantizeWeights(ws, logScores)
}

// quantizeWeights is QuantizeWeightsInto's portable loop.
func quantizeWeights(ws []uint64, logScores []float64) []uint64 {
	clear(ws)
	maxs := math.Inf(-1)
	for _, s := range logScores {
		if !math.IsNaN(s) && s > maxs {
			maxs = s
		}
	}
	if math.IsInf(maxs, -1) {
		return ws
	}
	for i, s := range logScores {
		if math.IsNaN(s) || math.IsInf(s, -1) {
			continue
		}
		if math.IsInf(s, 1) {
			ws[i] = MaxWeight
			continue
		}
		d := s - maxs
		if d < zeroWeightBelow {
			continue // ws[i] is 0 already, and exp would round it to 0
		}
		w := math.RoundToEven(exp(d) * (1 << WeightBits))
		if !(w < float64(MaxWeight)) {
			ws[i] = MaxWeight
			continue
		}
		ws[i] = uint64(w)
	}
	return ws
}

// QuantizeProb converts one probability (a bootstrap posterior in [0, 1])
// to an integer sampling weight on the same 2^WeightBits grid as
// QuantizeWeights, with the same guarantees: a positive probability always
// maps to a positive weight (so any retained candidate stays selectable —
// a sub-ULP posterior must not make WeightedIndex fail on an all-zero
// vector), NaN and non-positive values map to zero, and values ≥ 1 clamp
// to MaxWeight (uint64 of an out-of-range float is platform-dependent in
// Go, exactly the portability trap QuantizeWeights documents). Every split
// selection path — selection over the full posterior vector, the
// segmented scan and the naive baseline — must use this one helper so their
// weights, and hence the learned networks, stay bit-identical.
func QuantizeProb(p float64) uint64 {
	if math.IsNaN(p) || p <= 0 {
		return 0
	}
	if p >= 1 {
		return MaxWeight
	}
	w := math.RoundToEven(p * (1 << WeightBits))
	if w < 1 {
		return 1
	}
	if !(w < float64(MaxWeight)) {
		return MaxWeight
	}
	return uint64(w)
}

// Predictive returns the normal-gamma posterior predictive distribution of
// a new value given the block statistics s, approximated as a Gaussian: the
// posterior mean μN and the Student-t predictive variance
// βN(λN+1)/(λN(αN−1)). Unlike the raw empirical moments, the predictive
// variance stays honest on small or extremely tight blocks, which is what
// held-out likelihood scoring needs.
func (p Prior) Predictive(s Stats) (mean, variance float64) {
	n := float64(s.N)
	sum := float64(s.Sum) / ValueScale
	sumsq := float64(s.SumSq) / (ValueScale * ValueScale)
	var xbar, ss float64
	if s.N > 0 {
		xbar = sum / n
		ss = sumsq - sum*sum/n
		if ss < 0 {
			ss = 0
		}
	}
	lambdaN := p.Lambda0 + n
	alphaN := p.Alpha0 + n/2
	dm := xbar - p.Mu0
	betaN := p.Beta0 + 0.5*ss + p.Lambda0*n*dm*dm/(2*lambdaN)
	mean = (p.Lambda0*p.Mu0 + n*xbar) / lambdaN
	if alphaN > 1 {
		variance = betaN * (lambdaN + 1) / (lambdaN * (alphaN - 1))
	} else {
		// Heavy-tailed regime (tiny blocks): fall back to a broad but
		// finite spread.
		variance = betaN * (lambdaN + 1) / lambdaN * 10
	}
	if variance < 1e-6 {
		variance = 1e-6
	}
	return mean, variance
}

package score

import "math"

// kernelLanes is what splitsAVX2 and logmlAVX2 read besides the tables
// they load from; lanes_amd64.h names its rows by byte offset. Each row
// holds one constant once per lane.
type kernelLanes struct {
	// rows: the conversion magics 1.5·2⁵² and 2⁵², 2³², the low-word mask
	// and the high-word permutation; the table length; the fixed-point
	// scales 2⁻¹⁶ and 2⁻³²; the prior's μ₀, λ₀, α₀, β₀ and ln 2π; 0.5 and
	// the magnitude mask; fastLog's exponent window 959…1086, bias 1023,
	// table-index mask, mantissa mask and midpoint — the bias and the
	// midpoint folded into the magic — 0.25, 1/3, ln 2 and NaN; fastLogEps,
	// sumSlack and the sign bit; 2⁵¹, the bound of the magic conversion;
	// the odd-element mask and the integer 1, which form a right side.
	rows [31][4]uint64
	// spread maps a mask of the lanes of a pair, at bits 0 and 2, to two
	// bytes, one per lane, each 0 or 1.
	spread [16]uint16
}

// newKernelLanes builds a kernel's kernelLanes from its prior, the ln 2π its
// table was built with, and the table's length.
func newKernelLanes(p Prior, log2Pi float64, tabLen int) (l kernelLanes) {
	const lowBits = 52 - logTabBits
	bits := []uint64{
		0x4338000000000000,
		0x4330000000000000,
		math.Float64bits(0x1p32),
		1<<32 - 1,
		1 | 3<<32,
		uint64(tabLen),
		math.Float64bits(1.0 / ValueScale),
		math.Float64bits(1.0 / (ValueScale * ValueScale)),
		math.Float64bits(p.Mu0),
		math.Float64bits(p.Lambda0),
		math.Float64bits(p.Alpha0),
		math.Float64bits(p.Beta0),
		math.Float64bits(log2Pi),
		math.Float64bits(0.5),
		1<<63 - 1,
		1023 - fastLogMaxExp,
		1023 + fastLogMaxExp - 1,
		0x4338000000000000 - 1023,
		(1<<logTabBits - 1) << 1,
		1<<lowBits - 1,
		0x4338000000000000 - 1<<(lowBits-1),
		math.Float64bits(0.25),
		math.Float64bits(1.0 / 3),
		math.Float64bits(math.Ln2),
		math.Float64bits(math.NaN()),
		math.Float64bits(fastLogEps),
		math.Float64bits(sumSlack),
		1 << 63,
		1 << 51,
		0,
		1,
	}
	for r, b := range bits {
		l.rows[r] = [4]uint64{b, b, b, b}
	}
	// The permutation row lists the dwords 1, 3, 5, 7 in both halves; the
	// odd-element mask is all ones in elements 1 and 3.
	l.rows[4][1], l.rows[4][3] = 5|7<<32, 5|7<<32
	l.rows[29][1], l.rows[29][3] = ^uint64(0), ^uint64(0)
	for m := range l.spread {
		l.spread[m] = uint16(m&1 | m>>2&1<<8)
	}
	return l
}

// splitsKernel is SplitsImprove's certified pass on the AVX2 kernel, for a
// total inside the table and len(idx) ≥ 1: it returns k.LogML(*tot) and the
// number of lanes left uncertified, whose dst elements are 0.
func splitsKernel(k *Kernel, dst []Decision, bkt []Stats, idx []int32, tot *Stats) (totML float64, fallbacks int) {
	return splitsAVX2(&k.lanes, &logConsts, &k.tab[0], &logTab[0], &dst[0], &bkt[0], &idx[0], len(idx), tot)
}

// splitsAVX2 scores *tot, then decides the n ≥ 1 lanes at idx two at a
// time, both sides of both lanes in one vector.
//
//go:noescape
func splitsAVX2(lanes *kernelLanes, lt *logTable, tab *kernelEntry, ltab *logTabEntry, dst *Decision, bkt *Stats, idx *int32, n int, tot *Stats) (totML float64, fallbacks int)

package score

import "math"

// kernelLanes is what splitsAVX2 and logmlAVX2 read besides the tables
// they load from. Each [4]uint64 field holds one constant once per lane,
// and lanes_amd64.h addresses it by the field's offset from go_asm.h.
type kernelLanes struct {
	// The conversion magics 1.5·2⁵² and 2⁵², 2³², the low-word mask and the
	// high-word permutation; the table length, the fixed-point scales 2⁻¹⁶
	// and 2⁻³², the prior's μ₀, λ₀, α₀, β₀ and ln 2π; 0.5 and the magnitude
	// mask; fastLog's exponent window 959…1086, bias 1023, table-index
	// mask, mantissa mask and midpoint — the bias and the midpoint folded
	// into the magic — 0.25, 1/3, ln 2 and NaN; fastLogEps, sumSlack and the
	// sign bit; 2⁵¹, the bound of the magic conversion.
	magic, two52, two32, lo32, hidw                                     [4]uint64
	nmax, scale, scale2, mu0, lambda0, alpha0, beta0, log2Pi, half, abs [4]uint64
	expLo, expHi, kMagic, tIdx, mLow, mMagic, quarter, third, ln2, nan  [4]uint64
	eps, slack, sign, halfR                                             [4]uint64
	// spread maps a mask of the lanes of a pair, at bits 0 and 2, to two
	// bytes, one per lane, each 0 or 1.
	spread [16]uint16
}

// newKernelLanes builds a kernel's kernelLanes from its prior, the ln 2π its
// table was built with, and the table's length.
func newKernelLanes(p Prior, log2Pi float64, tabLen int) kernelLanes {
	const lowBits = 52 - logTabBits
	l := kernelLanes{
		magic: broadcast(0x4338000000000000),
		two52: broadcast(0x4330000000000000),
		two32: broadcastF(0x1p32),
		lo32:  broadcast(1<<32 - 1),
		// The dwords 1, 3, 5, 7 in both halves.
		hidw:    [4]uint64{1 | 3<<32, 5 | 7<<32, 1 | 3<<32, 5 | 7<<32},
		nmax:    broadcast(uint64(tabLen)),
		scale:   broadcastF(1.0 / ValueScale),
		scale2:  broadcastF(1.0 / (ValueScale * ValueScale)),
		mu0:     broadcastF(p.Mu0),
		lambda0: broadcastF(p.Lambda0),
		alpha0:  broadcastF(p.Alpha0),
		beta0:   broadcastF(p.Beta0),
		log2Pi:  broadcastF(log2Pi),
		half:    broadcastF(0.5),
		abs:     broadcast(1<<63 - 1),
		expLo:   broadcast(1023 - fastLogMaxExp),
		expHi:   broadcast(1023 + fastLogMaxExp - 1),
		kMagic:  broadcast(0x4338000000000000 - 1023),
		tIdx:    broadcast((1<<logTabBits - 1) << 1),
		mLow:    broadcast(1<<lowBits - 1),
		mMagic:  broadcast(0x4338000000000000 - 1<<(lowBits-1)),
		quarter: broadcastF(0.25),
		third:   broadcastF(1.0 / 3),
		ln2:     broadcastF(math.Ln2),
		nan:     broadcastF(math.NaN()),
		eps:     broadcastF(fastLogEps),
		slack:   broadcastF(sumSlack),
		sign:    broadcast(1 << 63),
		halfR:   broadcast(1 << 51),
	}
	for m := range l.spread {
		l.spread[m] = uint16(m&1 | m>>2&1<<8)
	}
	return l
}

// splitsKernel is SplitsImprove's certified pass on the AVX2 kernel, for
// len(lanes) ≥ 1: it returns the number of lanes left uncertified, whose dst
// elements are 0.
func splitsKernel(k *Kernel, dst []Decision, bkt []Stats, lanes []Lane, totML []float64) (fallbacks int) {
	return splitsAVX2(&k.lanes, &k.tab[0], &logTab[0], &dst[0], &bkt[0], &lanes[0], &totML[0], len(lanes))
}

// splitsAVX2 decides the n ≥ 1 lanes two at a time, both sides of both
// lanes in one vector.
//
//go:noescape
func splitsAVX2(lanes *kernelLanes, tab *kernelEntry, ltab *logTabEntry, dst *Decision, bkt *Stats, ln *Lane, totML *float64, n int) (fallbacks int)

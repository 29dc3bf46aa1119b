package score

import (
	"math"

	"parsimone/internal/cpu"
)

// weightKernel reports that the weight step may run on the AVX2 kernel: its
// EXP4 needs FMA beside AVX2 (useKernel). Tests clear useKernel to force
// the portable loop.
var weightKernel = cpu.FMA

// expTable is the constants of the weight kernel: EXP4's (lanes_amd64.h),
// then the step's own. Each field holds one constant once per lane, and the
// code addresses it by the field's offset from go_asm.h.
type expTable struct {
	log2E, ln2Hi, ln2Lo, sixteenth, c8, c7, c6, c5, c4, c3, half, one, two [4]uint64
	magic, bias                                                            [4]uint64
	floor, posInf, negInf, two32, two52, maxWeight                         [4]uint64
}

// expConsts is the weight kernel's table: exp's constants, the magic
// 1.5·2⁵² and the exponent bias that build 2^k, the skip bound, ±Inf, the
// weight scale 2³², the conversion magic 2⁵² and MaxWeight.
var expConsts = expTable{
	log2E:     broadcastF(expLog2E),
	ln2Hi:     broadcastF(expLn2Hi),
	ln2Lo:     broadcastF(expLn2Lo),
	sixteenth: broadcastF(0.0625),
	c8:        broadcastF(expC8),
	c7:        broadcastF(expC7),
	c6:        broadcastF(expC6),
	c5:        broadcastF(expC5),
	c4:        broadcastF(expC4),
	c3:        broadcastF(expC3),
	half:      broadcastF(0.5),
	one:       broadcastF(1),
	two:       broadcastF(2),
	magic:     broadcast(0x4338000000000000),
	bias:      broadcast(1023),
	floor:     broadcastF(zeroWeightBelow),
	posInf:    broadcastF(math.Inf(1)),
	negInf:    broadcastF(math.Inf(-1)),
	two32:     broadcastF(1 << WeightBits),
	two52:     broadcast(0x4330000000000000),
	maxWeight: broadcast(MaxWeight),
}

// quantizeKernel is QuantizeWeightsInto on the AVX2 kernel, for len(s) ≥ 1
// and len(ws) ≥ len(s).
func quantizeKernel(ws []uint64, s []float64) {
	weightsAVX2(&expConsts, &ws[0], &s[0], len(s))
}

// weightsAVX2 stores the n ≥ 1 weights of the scores at s at ws, four
// lanes a vector: one pass takes the maximum, a second the weights.
//
//go:noescape
func weightsAVX2(c *expTable, ws *uint64, s *float64, n int)

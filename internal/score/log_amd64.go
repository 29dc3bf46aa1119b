package score

import (
	"math"

	"parsimone/internal/cpu"
)

// useKernel reports that the score's AVX2 kernels run (cpu.AVX2): the
// fused block scoring of LogMLBatch and the split kernel of SplitsImprove.
// Tests clear it to force the portable loops.
var useKernel = cpu.AVX2

// logTable is the constants of LOG4 (log_amd64.h), the lane code of
// math.Log's amd64 code that the fused block scoring includes. Each field holds one constant of that code once per lane, and
// the macro addresses it by the field's offset from go_asm.h.
type logTable struct {
	mant, half, exp, bias, magic, hsqrt2, one, two [4]uint64
	l7, l5, l3, l1, l6, l4, l2                     [4]uint64
	ln2Lo, ln2Hi, abs, nan, negInf, posInf         [4]uint64
}

// logConsts is LOG4's table. The float literals are math's log_amd64.s
// spellings, so they round to the same bits.
var logConsts = logTable{
	mant:   broadcast(0x000FFFFFFFFFFFFF),
	half:   broadcastF(0.5),
	exp:    broadcast(0x7FF),
	bias:   broadcast(0x3FE),
	magic:  broadcast(0x4338000000000000),
	hsqrt2: broadcastF(7.07106781186547524401e-01),
	one:    broadcastF(1),
	two:    broadcastF(2),
	l7:     broadcastF(1.479819860511658591e-01),
	l5:     broadcastF(1.818357216161805012e-01),
	l3:     broadcastF(2.857142874366239149e-01),
	l1:     broadcastF(6.666666666666735130e-01),
	l6:     broadcastF(1.531383769920937332e-01),
	l4:     broadcastF(2.222219843214978396e-01),
	l2:     broadcastF(3.999999999940941908e-01),
	ln2Lo:  broadcastF(1.90821492927058770002e-10),
	ln2Hi:  broadcastF(6.93147180369123816490e-01),
	abs:    broadcast(1<<63 - 1),
	nan:    broadcast(0x7FF8000000000001),
	negInf: broadcast(0xFFF0000000000000),
	posInf: broadcast(0x7FF0000000000000),
}

// broadcast is b once per lane of a vector.
func broadcast(b uint64) [4]uint64 { return [4]uint64{b, b, b, b} }

// broadcastF is the bits of f once per lane of a vector.
func broadcastF(f float64) [4]uint64 { return broadcast(math.Float64bits(f)) }

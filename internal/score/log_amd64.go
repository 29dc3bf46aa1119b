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
// math.Log's amd64 code that the fused block scoring and the split kernel
// include; the macro addresses its rows by byte offset. Each row holds one
// constant of that code, once per lane: the mantissa mask, 0.5, the
// exponent mask and bias, the exact int-to-float magic 1.5·2^52, √2/2, 1,
// 2, L7, L5, L3, L1, L6, L4, L2, Ln2Lo, Ln2Hi, the magnitude mask, and the
// NaN, −Inf and +Inf results.
type logTable struct {
	rows [21][4]uint64
}

// logConsts is LOG4's table. The float literals are math's log_amd64.s
// spellings, so they round to the same bits.
var logConsts = func() (t logTable) {
	bits := []uint64{
		0x000FFFFFFFFFFFFF,
		math.Float64bits(0.5),
		0x7FF,
		0x3FE,
		0x4338000000000000,
		math.Float64bits(7.07106781186547524401e-01),
		math.Float64bits(1),
		math.Float64bits(2),
		math.Float64bits(1.479819860511658591e-01),
		math.Float64bits(1.818357216161805012e-01),
		math.Float64bits(2.857142874366239149e-01),
		math.Float64bits(6.666666666666735130e-01),
		math.Float64bits(1.531383769920937332e-01),
		math.Float64bits(2.222219843214978396e-01),
		math.Float64bits(3.999999999940941908e-01),
		math.Float64bits(1.90821492927058770002e-10),
		math.Float64bits(6.93147180369123816490e-01),
		1<<63 - 1,
		0x7FF8000000000001,
		0xFFF0000000000000,
		0x7FF0000000000000,
	}
	for r, b := range bits {
		t.rows[r] = [4]uint64{b, b, b, b}
	}
	return t
}()

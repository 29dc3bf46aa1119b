package score

import (
	"math"

	"parsimone/internal/cpu"
)

// useKernel reports that the batched logarithm runs on the AVX2 kernel
// (cpu.AVX2). Tests clear it to force the portable loop.
var useKernel = cpu.AVX2

// logTable is what logAVX2 reads; log_amd64.s addresses its fields by byte
// offset. Each row holds one constant of math.Log's amd64 code, once per
// lane.
type logTable struct {
	// rows: the mantissa mask, 0.5, the exponent mask and bias, the exact
	// int-to-float magic 1.5·2^52, √2/2, 1, 2, L7, L5, L3, L1, L6, L4, L2,
	// Ln2Lo, Ln2Hi, the magnitude mask, and the NaN, −Inf and +Inf results.
	rows [21][4]uint64
	// tail is four all-ones words, then four zero ones: the four words from
	// index 4 − r enable the first r lanes of the padded last group.
	tail [8]uint64
}

// logConsts is logAVX2's table. The float literals are log_amd64.s's own
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
	for i := range 4 {
		t.tail[i] = ^uint64(0)
	}
	return t
}()

// logKernel is logs on the AVX2 kernel, for len(src) ≥ 1.
func logKernel(dst, src []float64) { logAVX2(&logConsts, &dst[0], &src[0], len(src)) }

// logAVX2 writes the logarithms of the n ≥ 1 values at src to dst. A
// partial last group of four is loaded and stored through a lane mask.
//
//go:noescape
func logAVX2(t *logTable, dst, src *float64, n int)

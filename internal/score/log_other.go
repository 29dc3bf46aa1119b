//go:build !amd64

package score

// useKernel is false: this platform has no batched-logarithm kernel, and
// logs runs the portable loop, which is math.Log.
var useKernel = false

func logKernel(dst, src []float64) { panic("score: no batched logarithm kernel on this platform") }

//go:build !amd64

package score

// weightKernel is false: this platform has no weight kernel, and
// QuantizeWeightsInto runs the portable loop.
var weightKernel = false

func quantizeKernel([]uint64, []float64) {
	panic("score: no weight kernel on this platform")
}

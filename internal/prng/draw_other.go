//go:build !amd64

package prng

// useKernel is false: this platform has no vector kernel, and drawRaw runs
// the portable implementation.
var useKernel = false

func drawKernel(*[3]uint64, []int) { panic("prng: no vector draw kernel on this platform") }

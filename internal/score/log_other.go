//go:build !amd64

package score

// useKernel is false: this platform has no vector kernels, and LogMLBatch
// and SplitsImprove run the portable loops.
var useKernel = false

//go:build !amd64

package cluster

// useKernel is false: this platform has no gather kernels, and
// GainsAttachVar and GainsMergeVar run the portable loops.
var useKernel = false

func gatherKernel(*Batch, *CoClustering, []int32, int, int) {
	panic("cluster: no gather kernel on this platform")
}

//go:build !amd64

package cluster

import "parsimone/internal/score"

// useKernel is false: this platform has no gather kernel, and
// GainsAttachVar and GainsMergeVar run the portable loop.
var useKernel = false

func mergeKernel(*Batch, *CoClustering, []score.Stats, int, int) {
	panic("cluster: no gather kernel on this platform")
}

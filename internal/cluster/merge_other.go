//go:build !amd64

package cluster

import "parsimone/internal/score"

func mergeKernel(*Batch, *CoClustering, []score.Stats, int64, int, int) {
	panic("cluster: no merge-var kernel on this platform")
}

//go:build !amd64

package score

// splitLanes is empty: this platform has no split kernel, and
// SplitsImprove runs the loop over SplitImproves.
type splitLanes struct{}

func newSplitLanes(Prior, float64, int) splitLanes { return splitLanes{} }

func splitsKernel(*Kernel, []Decision, []Stats, []int32, *Stats) (float64, int) {
	panic("score: no split kernel on this platform")
}

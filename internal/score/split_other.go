//go:build !amd64

package score

// kernelLanes is empty: this platform has no lane kernels, so
// SplitsImprove runs the loop over SplitImproves and LogMLBatch its
// portable evaluation.
type kernelLanes struct{}

func newKernelLanes(Prior, float64, int) kernelLanes { return kernelLanes{} }

func splitsKernel(*Kernel, []Decision, []Stats, []Lane, []float64) int {
	panic("score: no split kernel on this platform")
}

func logmlKernel(*Kernel, []float64, []Stats) int {
	panic("score: no block scoring kernel on this platform")
}

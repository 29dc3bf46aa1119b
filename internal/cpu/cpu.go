// Package cpu reports the instruction-set features the repo's vector
// kernels need: the draw kernel of internal/prng (DESIGN §27), the split
// kernel (DESIGN §29) and the fused block scoring (DESIGN §30) of
// internal/score, and the attach-var gather of internal/cluster
// (DESIGN §30). All of them choose their path once, at
// init, from AVX2; this is the one place that asks the CPU.
package cpu

// AVX2 reports that AVX2 kernels may run: the CPU has AVX2 and the OS saves
// the YMM registers across context switches. Always false off amd64.
var AVX2 = hasAVX2()

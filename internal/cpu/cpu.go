// Package cpu reports the instruction-set features the repo's vector
// kernels need: the draw kernel of internal/prng (DESIGN §27), the split
// kernel (DESIGN §29), the fused block scoring (DESIGN §30) and the weight
// step (DESIGN §31) of internal/score, and the attach-var and merge-var
// gathers of internal/cluster (DESIGN §30, §31). All of them choose their
// path once, at init, from AVX2 (and the weight step from FMA too); this is
// the one place that asks the CPU.
package cpu

// AVX2 reports that AVX2 kernels may run: the CPU has AVX2 and the OS saves
// the YMM registers across context switches. Always false off amd64.
var AVX2 = hasAVX2()

// FMA reports that the CPU has the FMA3 instructions (VFMADD…PD) and the OS
// saves the YMM registers. Always false off amd64.
var FMA = hasFMA()

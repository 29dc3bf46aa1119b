package prng

import "parsimone/internal/cpu"

// useKernel reports that the vector kernel runs: the CPU has AVX2 and the
// OS saves the YMM registers across context switches (cpu.AVX2). Tests
// clear it to force the portable path.
var useKernel = cpu.AVX2

// kernelTable is what the vector kernel reads besides the state; draw_amd64.s
// addresses its fields at the offsets go_asm.h gives.
type kernelTable struct {
	// coef is the coefficient table in the kernel's lane order. The kernel
	// holds a block's 24 raw outputs in six 4-lane registers: row r lane l
	// is raw output 3·pick + r%3 + 1 of pick 4·(r/3) + l, so rows 0–2 are
	// the (a, b, c) raw outputs of picks 0–3 and rows 3–5 those of picks
	// 4–7. coef[r][w][l] is that output's coefficient of state word w.
	coef [6][3][4]uint64
	// fold is 2^32 − 1, 2^31 − 1, 2^32 and 2^31 mod Modulus, and Modulus:
	// the reduction's masks, fold factors and final subtrahend.
	fold [5]uint64
	// tailMask is eight all-ones words, then eight zero ones: the four
	// words from index 8 − r + 4·h enable lane l of register half h
	// exactly when pick 4·h + l < r.
	tailMask [2 * kernelPicks]uint64
}

// kernel is the table drawAVX2 reads, built at init from steps.
var kernel = func() (t kernelTable) {
	for r := range t.coef {
		for l := range t.coef[r][0] {
			k := 3*(r/3*4+l) + r%3 + 1
			for w := range t.coef[r] {
				t.coef[r][w][l] = steps[k][w]
			}
		}
	}
	t.fold = [5]uint64{1<<32 - 1, 1<<31 - 1, 1 << 32 % Modulus, 1 << 31 % Modulus, Modulus}
	for i := range kernelPicks {
		t.tailMask[i] = ^uint64(0)
	}
	return t
}()

// drawKernel is drawRaw on the vector kernel, for len(dst) ≥ 1.
func drawKernel(s *[3]uint64, dst []int) { drawAVX2(&kernel, s, &dst[0], len(dst)) }

// drawAVX2 writes n ≥ 1 outputs at dst. A partial last block is stored
// through a lane mask, and the state after its last pick is read from that
// pick's lanes, so the tail costs one kernel iteration and no scalar step.
//
//go:noescape
func drawAVX2(t *kernelTable, s *[3]uint64, dst *int, n int)

package prng

// The batch generator: the raw Uint64 outputs of a stream, many per call.
// Two implementations produce the same bits. The portable one below is the
// reference; amd64 with AVX2 swaps in an eight-picks-per-iteration vector
// kernel (draw_amd64.s) when CPUID and XGETBV report the instruction set
// and the OS-saved YMM state. Nothing else selects it.

// kernelPicks is the number of Uint64 outputs (three raw outputs each) the
// vector kernel computes per iteration from one state.
const kernelPicks = 8

// steps[k] is the top row of transition^k: the recurrence output k steps
// ahead of state (s0, s1, s2) is steps[k]·(s0, s1, s2) mod Modulus. Both
// implementations read their coefficients from it.
var steps = func() (t [3*kernelPicks + 1][3]uint64) {
	for k := range t {
		m := matPow(transition, uint64(k))
		t[k] = [3]uint64{m[0], m[1], m[2]}
	}
	return t
}()

// drawRaw overwrites dst with the bit patterns of the next len(dst) Uint64
// outputs of the stream at state s (most recent word first) and advances s
// past them, exactly as len(dst) MRG3.Uint64 calls would. The values land
// in the caller's []int so that Uniform.Fill can filter them in place.
func drawRaw(s *[3]uint64, dst []int) {
	if useKernel && len(dst) > 0 {
		drawKernel(s, dst)
		return
	}
	drawPortable(s, dst)
}

// drawPortable is the reference implementation. The output k steps ahead
// is steps[k] applied to the current state, so the six raw outputs of two
// consecutive Uint64s are six independent dot products of the same state:
// one link of the serial step-to-step chain per two values instead of one
// per raw output. All operands are reduced (< 2^31), so each three-term sum
// is < 3·2^62 < 2^64 and one final reduction is exact, as in Next.
func drawPortable(s *[3]uint64, dst []int) {
	s0, s1, s2 := s[0], s[1], s[2]
	a, b, c := steps[1], steps[2], steps[3]
	d, e, f := steps[4], steps[5], steps[6]
	i := 0
	for ; i+1 < len(dst); i += 2 {
		x1 := (a[0]*s0 + a[1]*s1 + a[2]*s2) % Modulus
		y1 := (b[0]*s0 + b[1]*s1 + b[2]*s2) % Modulus
		z1 := (c[0]*s0 + c[1]*s1 + c[2]*s2) % Modulus
		x2 := (d[0]*s0 + d[1]*s1 + d[2]*s2) % Modulus
		y2 := (e[0]*s0 + e[1]*s1 + e[2]*s2) % Modulus
		z2 := (f[0]*s0 + f[1]*s1 + f[2]*s2) % Modulus
		dst[i] = int(x1<<33 | y1<<2 | z1>>29)
		dst[i+1] = int(x2<<33 | y2<<2 | z2>>29)
		s2, s1, s0 = x2, y2, z2
	}
	if i < len(dst) {
		x := (a[0]*s0 + a[1]*s1 + a[2]*s2) % Modulus
		y := (b[0]*s0 + b[1]*s1 + b[2]*s2) % Modulus
		z := (c[0]*s0 + c[1]*s1 + c[2]*s2) % Modulus
		dst[i] = int(x<<33 | y<<2 | z>>29)
		s2, s1, s0 = x, y, z
	}
	s[0], s[1], s[2] = s0, s1, s2
}

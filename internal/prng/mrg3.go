// Package prng implements a parallelizable multiple recursive pseudo-random
// number generator (MRG) with three feedback terms and a Sophie-Germain prime
// modulus, in the family of TRNG's mrg3s generator used by the paper
// (Srivastava et al., SC '21, §4.2). The generator supports O(log k)
// jump-ahead via 3×3 matrix exponentiation, which enables block splitting of
// a single logical random stream across processors: every rank can position
// itself at an arbitrary offset of the shared stream in constant time, so the
// parallel program consumes exactly the same random sequence as the
// sequential one regardless of the number of ranks.
package prng

import (
	"math"
	"math/bits"
)

// Generator parameters. Modulus is the Sophie-Germain prime 2^31 − 105
// (both Modulus and 2·Modulus+1 are prime; verified in the tests). The
// recurrence is
//
//	x_n = (A1·x_{n−1} + A2·x_{n−2} + A3·x_{n−3}) mod Modulus
const (
	Modulus uint64 = 1<<31 - 105 // 2147483543
	A1      uint64 = 2025213985
	A2      uint64 = 1112953677
	A3      uint64 = 2038969601
)

// MRG3 is a multiple recursive generator over the prime field Z_Modulus.
// The zero value is not a valid generator; use New or NewFromState.
type MRG3 struct {
	// s0 is the most recent output, s1 and s2 the two before it.
	s0, s1, s2 uint64
	// cached second Box-Muller deviate for Normal.
	normCached bool
	normVal    float64
}

// splitmix64 advances a SplitMix64 state and returns the next output. It is
// used only to expand user seeds into full generator state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator whose state is derived deterministically from seed.
// Distinct seeds yield well-separated, statistically independent states.
func New(seed uint64) *MRG3 {
	sm := seed
	g := &MRG3{}
	// Map into [1, Modulus) so the state is never the all-zero fixed point.
	g.s0 = splitmix64(&sm)%(Modulus-1) + 1
	g.s1 = splitmix64(&sm)%(Modulus-1) + 1
	g.s2 = splitmix64(&sm)%(Modulus-1) + 1
	return g
}

// NewFromState returns a generator with the exact state words (s0 most
// recent). It panics if the state is invalid (any word ≥ Modulus, or all
// zero), since such a state can never be produced by the generator itself.
func NewFromState(s0, s1, s2 uint64) *MRG3 {
	if s0 >= Modulus || s1 >= Modulus || s2 >= Modulus {
		panic("prng: state word out of range")
	}
	if s0 == 0 && s1 == 0 && s2 == 0 {
		panic("prng: all-zero state")
	}
	return &MRG3{s0: s0, s1: s1, s2: s2}
}

// State returns the three state words, most recent first. Together with
// NewFromState it allows replicating a generator across ranks.
func (g *MRG3) State() (s0, s1, s2 uint64) { return g.s0, g.s1, g.s2 }

// Clone returns an independent copy of the generator at the same position of
// the stream.
func (g *MRG3) Clone() *MRG3 {
	c := *g
	return &c
}

// Next returns the next raw output of the recurrence, uniform on [0, Modulus).
func (g *MRG3) Next() uint64 {
	// All operands are < 2^31, so each product is < 2^62 and the raw sum of
	// all three is < 3·2^62 < 2^64: one final reduction is exact and yields
	// the same residue as reducing each term, at a quarter of the divisions.
	x := (A1*g.s0 + A2*g.s1 + A3*g.s2) % Modulus
	g.s2, g.s1, g.s0 = g.s1, g.s0, x
	return x
}

// Uint64 returns a uniform 64-bit value built from three raw outputs.
func (g *MRG3) Uint64() uint64 {
	a := g.Next() // 31 bits
	b := g.Next() // 31 bits
	c := g.Next() // use top 2 bits
	return a<<33 | b<<2 | c>>29
}

// Float64 returns a uniform deviate in [0, 1) with 53 random bits.
func (g *MRG3) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Rejection sampling removes modulo bias.
func (g *MRG3) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two
		return g.Uint64() & (n - 1)
	}
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := g.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *MRG3) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with n <= 0")
	}
	return int(g.Uint64n(uint64(n)))
}

// Uniform is a bounded-draw sampler with Uint64n's rejection threshold
// precomputed at construction. Draw consumes the stream exactly as
// Intn(n)/Uint64n(n) would — same values, same number of raw outputs — so
// hot loops that make millions of same-bound draws (the split-posterior
// bootstrap) hoist the per-call threshold division out of the loop without
// changing any consumed bit.
type Uniform struct {
	n uint64
	// pow2/mask mirror Uint64n's power-of-two fast path; limit is its
	// rejection threshold otherwise, and m = ⌊2^64/n⌋ rem's Barrett
	// multiplier.
	pow2  bool
	mask  uint64
	limit uint64
	m     uint64
}

// NewUniform returns the sampler for [0, n). It panics if n <= 0.
func NewUniform(n int) Uniform {
	if n <= 0 {
		panic("prng: NewUniform with n <= 0")
	}
	u := Uniform{n: uint64(n)}
	if u.n&(u.n-1) == 0 {
		u.pow2, u.mask = true, u.n-1
		return u
	}
	// n is no power of two, so it does not divide 2^64 and
	// ⌊(2^64 − 1)/n⌋ = ⌊2^64/n⌋. Uint64n's threshold MaxUint64 −
	// MaxUint64 % n is then m·n.
	u.m = math.MaxUint64 / u.n
	u.limit = u.m * u.n
	return u
}

// rem returns v % n for a non-power-of-two n and m = ⌊2^64/n⌋ by Barrett
// reduction. With 2^64 = m·n + e (1 ≤ e < n), v·m/2^64 = v/n − v·e/(n·2^64)
// lies in (v/n − 1, v/n], so q = ⌊v·m/2^64⌋ is ⌊v/n⌋ or one less, r = v −
// q·n is below 2n (< 2^64, as n < 2^63), and one correction is exact for
// every v. TestUniformRemExact checks it against the hardware divide.
func rem(v, n, m uint64) uint64 {
	q, _ := bits.Mul64(v, m)
	r := v - q*n
	if r >= n {
		r -= n
	}
	return r
}

// Draw returns a uniform value in [0, n), drawing from g bit-identically to
// g.Intn(n).
func (u Uniform) Draw(g *MRG3) int {
	if u.pow2 {
		return int(g.Uint64() & u.mask)
	}
	for {
		v := g.Uint64()
		if v < u.limit {
			return int(rem(v, u.n, u.m))
		}
	}
}

// Fill fills dst with uniform values in [0, n), drawing from g exactly as
// len(dst) successive Draw calls would — same values, same raw outputs
// consumed. It is a filter over the batch generator's Uint64 stream
// (draw.go), run in place: dst first receives the next len(dst) raw
// values, then the ones below limit are kept, reduced and packed to the
// front. A rejected value — probability < n/2^64 per draw — is skipped and
// the shortfall drawn next, which is how Draw consumes the stream; each
// round draws only as many values as are still missing, so the generator
// never runs past the last kept one.
func (u Uniform) Fill(g *MRG3, dst []int) {
	s := [3]uint64{g.s0, g.s1, g.s2}
	if u.pow2 {
		drawRaw(&s, dst)
		for i, v := range dst {
			dst[i] = v & int(u.mask)
		}
	} else {
		n, m, limit := u.n, u.m, u.limit
		for len(dst) > 0 {
			drawRaw(&s, dst)
			k := 0
			for _, v := range dst {
				if uint64(v) < limit {
					dst[k] = int(rem(uint64(v), n, m))
					k++
				}
			}
			dst = dst[k:]
		}
	}
	g.s0, g.s1, g.s2 = s[0], s[1], s[2]
}

// Normal returns a standard normal deviate using the Box-Muller transform.
// Deviates are produced in pairs; the second is cached, so one call consumes
// either zero or two uniform deviates from the underlying stream.
func (g *MRG3) Normal() float64 {
	if g.normCached {
		g.normCached = false
		return g.normVal
	}
	var u float64
	//parsivet:floateq — rejects the exact 0 the uniform can emit before log(u)
	for u == 0 {
		u = g.Float64()
	}
	v := g.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	g.normVal = r * math.Sin(2*math.Pi*v)
	g.normCached = true
	return r * math.Cos(2*math.Pi*v)
}

// WeightedIndex returns an index in [0, len(weights)) chosen with probability
// proportional to the integer weights. It consumes exactly one Uint64 draw
// when the total weight is positive. If all weights are zero it returns -1
// without consuming randomness. Integer weights make the selection exactly
// reproducible regardless of how partial sums were combined across ranks.
func (g *MRG3) WeightedIndex(weights []uint64) int {
	var total uint64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return -1
	}
	u := g.Uint64n(total)
	var acc uint64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	// Unreachable: acc == total > u at the last index.
	panic("prng: weighted selection overran total")
}

// transition is the 3×3 companion matrix of the recurrence.
var transition = mat3{
	A1, A2, A3,
	1, 0, 0,
	0, 1, 0,
}

// mat3 is a 3×3 matrix over Z_Modulus in row-major order.
type mat3 [9]uint64

// mulMat returns a·b mod Modulus.
func mulMat(a, b mat3) mat3 {
	var c mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			// Entries are reduced (< 2^31), so the three products sum to
			// < 3·2^62 < 2^64: one final reduction matches per-term reduction.
			var s uint64
			for k := 0; k < 3; k++ {
				s += a[3*i+k] * b[3*k+j]
			}
			c[3*i+j] = s % Modulus
		}
	}
	return c
}

// matPow returns m^k mod Modulus by binary exponentiation.
func matPow(m mat3, k uint64) mat3 {
	r := mat3{1, 0, 0, 0, 1, 0, 0, 0, 1} // identity
	for k > 0 {
		if k&1 == 1 {
			r = mulMat(r, m)
		}
		m = mulMat(m, m)
		k >>= 1
	}
	return r
}

// Jump advances the generator by k steps of the recurrence in O(log k) time,
// as if Next had been called k times (jump-ahead / block splitting).
func (g *MRG3) Jump(k uint64) {
	if k == 0 {
		return
	}
	t := matPow(transition, k)
	s0 := (t[0]*g.s0 + t[1]*g.s1 + t[2]*g.s2) % Modulus
	s1 := (t[3]*g.s0 + t[4]*g.s1 + t[5]*g.s2) % Modulus
	s2 := (t[6]*g.s0 + t[7]*g.s1 + t[8]*g.s2) % Modulus
	g.s0, g.s1, g.s2 = s0, s1, s2
	g.normCached = false
}

// SubstreamSpacing is the distance, in raw outputs, between consecutive
// numbered substreams. 2^44 raw outputs per substream is far more than any
// single work item consumes.
const SubstreamSpacing uint64 = 1 << 44

// substreamJumps[b] is the transition matrix raised to 2^b·SubstreamSpacing,
// computed once. Substream i applies substreamJumps[b] for every set bit b
// of i, which avoids the uint64 overflow of computing i·SubstreamSpacing
// directly.
var substreamJumps = func() (t [64]mat3) {
	t[0] = matPow(transition, SubstreamSpacing)
	for b := 1; b < len(t); b++ {
		t[b] = mulMat(t[b-1], t[b-1])
	}
	return t
}()

// Substream returns a new generator positioned at the start of numbered
// substream i of g's stream: a copy of g jumped ahead by i·SubstreamSpacing
// raw outputs. Work item i always draws from substream i, so the consumed
// sequence is independent of how work items are distributed over ranks.
// The powers of one matrix commute and the arithmetic is exact over
// Z_Modulus, so applying the set bits of i to the state vector one
// matrix–vector product at a time gives the state matPow's product would,
// at a third of the multiplications per bit and none for the clear bits.
func (g *MRG3) Substream(i uint64) *MRG3 {
	s0, s1, s2 := g.s0, g.s1, g.s2
	for ; i != 0; i &= i - 1 {
		t := &substreamJumps[bits.TrailingZeros64(i)]
		s0, s1, s2 = (t[0]*s0+t[1]*s1+t[2]*s2)%Modulus,
			(t[3]*s0+t[4]*s1+t[5]*s2)%Modulus,
			(t[6]*s0+t[7]*s1+t[8]*s2)%Modulus
	}
	return &MRG3{s0: s0, s1: s1, s2: s2}
}

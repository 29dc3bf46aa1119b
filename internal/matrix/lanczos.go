package matrix

import "math"

// maxBasis caps the Lanczos basis: a solve holds at most maxBasis vectors of
// the matrix's size, k·n values where a dense eigensolver would hold n², and
// restarts from its Ritz vector when the basis is full. Rounds whose two
// leading eigenvalues are far apart converge in a few products; the cap
// matters only for near-ties, where a cycle of 64 products still shrinks
// the unwanted component by a Chebyshev factor (DESIGN.md §17).
const maxBasis = 64

// Eigenpair is the outcome of Lanczos.Dominant.
type Eigenpair struct {
	// Value is the largest eigenvalue estimate (a Ritz value) and Vector
	// the corresponding unit Ritz vector, signed so its entries sum to a
	// non-negative number.
	Value  float64
	Vector []float64
	// Products counts the matrix products the solve made, the explicit
	// residual checks included; Converged reports whether a pair passed
	// both stop tests before the cap.
	Products  int
	Converged bool
	// Residual is ‖S·v − λ·v‖ for a converged pair, at most
	// 10⁻⁴·(1+|λ|), and the Ritz estimate of it when the cap stopped the
	// solve.
	Residual float64
}

// Lanczos is the scratch of the dominant-eigenpair solver for matrices of
// at most n rows, allocated once and reused by every solve: the basis
// (min(maxBasis, n) vectors of n), three work vectors, the tridiagonal
// matrix and its eigensolver's rotations.
type Lanczos struct {
	basis       []float64
	w, x, sx    []float64
	alpha, beta []float64 // the tridiagonal's diagonal and off-diagonal
	d, e, z     []float64 // tql's scratch: eigenvalues, off-diagonal, rotations
}

// NewLanczos returns the scratch for matrices of at most n rows.
func NewLanczos(n int) *Lanczos {
	k := min(maxBasis, n)
	return &Lanczos{
		basis: make([]float64, k*n),
		w:     make([]float64, n), x: make([]float64, n), sx: make([]float64, n),
		alpha: make([]float64, k), beta: make([]float64, k),
		d: make([]float64, k), e: make([]float64, k), z: make([]float64, k*k),
	}
}

// Dominant returns the dominant eigenpair of s, whose size must not exceed
// the scratch's: the largest eigenvalue, for the non-negative matrices of
// co-occurrence accumulation the Perron root, and its eigenvector. A zero
// matrix returns Value 0 with the start vector. The returned Vector
// aliases the scratch and is valid until the next solve.
//
// It runs Lanczos from the uniform vector 1/√m, and every step is a fixed
// sequence of float64 operations, every sum in a fixed order:
//   - one product w = S·q_j, then the three-term recurrence and two passes
//     of full (modified Gram–Schmidt) reorthogonalization against the
//     basis;
//   - the largest eigenvalue θ of the tridiagonal T_j and the last
//     component s_j of its eigenvector, by implicit QL (tql), which give
//     the Ritz estimate β_j·|s_j| of ‖S·x − θ·x‖;
//   - once the estimate is at most tol·(1+|θ|), the Ritz vector x is formed
//     and accepted only if one more product confirms
//     ‖S·x − θ·x‖ ≤ 10⁻⁴·(1+|θ|); otherwise the recurrence goes on.
//
// A full basis, or an exactly invariant one, restarts the recurrence from
// x. The solve stops unconverged once it has made maxProducts (≥ 1)
// products. Entries of the start vector that rows with identical cells
// act on stay bit-identical through every step, so ties in the returned
// vector are exact (DESIGN.md §17).
func (l *Lanczos) Dominant(s *CSR, maxProducts int, tol float64) Eigenpair {
	m := s.N
	if m == 0 {
		return Eigenpair{Converged: true}
	}
	k := min(maxBasis, m)
	q := func(j int) []float64 { return l.basis[j*m : (j+1)*m] }
	w, x, sx := l.w[:m], l.x[:m], l.sx[:m]
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(m))
	}
	var theta, est float64
	products := 0
	for {
		// One cycle of the recurrence from the unit vector x; after step
		// j the basis holds q(0..j) and T is (j+1)×(j+1).
		copy(q(0), x)
		j := 0
		for ; ; j++ {
			if products == maxProducts {
				if j > 0 {
					theta = l.ritz(j, m, x)
				}
				return Eigenpair{Value: theta, Vector: x, Products: products, Residual: est}
			}
			qj := q(j)
			s.MulVec(qj, w)
			products++
			// Each subDot subtracts one projection and forms the next
			// dot product in the same sweep over w: the recurrence's two
			// terms, then the two reorthogonalization passes, the last
			// of which ends with ‖w‖².
			var a float64
			if j > 0 {
				a = subDot(w, l.beta[j-1], q(j-1), qj)
			} else {
				a = dot(qj, w)
			}
			h := subDot(w, a, qj, q(0))
			for pass := 0; pass < 2; pass++ {
				for i := 0; i <= j; i++ {
					next := w
					if i < j {
						next = q(i + 1)
					} else if pass == 0 {
						next = q(0)
					}
					h = subDot(w, h, q(i), next)
				}
			}
			b := math.Sqrt(h)
			l.alpha[j], l.beta[j] = a, b
			var last float64
			theta, last = l.top(j + 1)
			est = float64(b * math.Abs(last))
			if est <= tol*(1+math.Abs(theta)) && products < maxProducts {
				l.ritz(j+1, m, x)
				s.MulVec(x, sx)
				products++
				if r := residual(sx, x, theta); r <= 1e-4*(1+math.Abs(theta)) {
					return Eigenpair{Value: theta, Vector: x, Products: products, Converged: true, Residual: r}
				}
			}
			//parsivet:floateq — an exactly invariant subspace has no next basis vector
			if j+1 == k || b == 0 {
				break
			}
			next, inv := q(j+1), 1/b
			for i, v := range w {
				next[i] = v * inv
			}
		}
		l.ritz(j+1, m, x)
	}
}

// top returns the largest eigenvalue of the leading t×t block of the
// tridiagonal matrix and the last component of its unit eigenvector.
func (l *Lanczos) top(t int) (float64, float64) {
	d, e, z := l.tridiagonal(t), l.e[:t], l.z[:t]
	clear(z)
	z[t-1] = 1
	tql(d, e, z)
	c := argmax(d)
	return d[c], z[c]
}

// ritz writes the unit Ritz vector of the leading t×t block of the
// tridiagonal matrix's largest eigenvalue into x, signed so its entries
// sum to ≥ 0, and returns that eigenvalue. The eigenvalues are the same
// bits top computed: tql's rotations of z do not feed back into d.
func (l *Lanczos) ritz(t, m int, x []float64) float64 {
	d, e, z := l.tridiagonal(t), l.e[:t], l.z[:t*t]
	clear(z)
	for r := 0; r < t; r++ {
		z[r*t+r] = 1
	}
	tql(d, e, z)
	c := argmax(d)
	clear(x)
	for r := 0; r < t; r++ {
		sr, qr := z[r*t+c], l.basis[r*m:(r+1)*m]
		for i, v := range qr {
			x[i] += float64(sr * v)
		}
	}
	norm := Norm2(x)
	var sum float64
	for _, v := range x {
		sum += v
	}
	if sum < 0 {
		norm = -norm
	}
	for i := range x {
		x[i] /= norm
	}
	return d[c]
}

// tridiagonal copies the leading t×t block of the tridiagonal matrix into
// tql's scratch and returns its diagonal.
func (l *Lanczos) tridiagonal(t int) []float64 {
	copy(l.d, l.alpha[:t])
	copy(l.e, l.beta[:t-1])
	l.e[t-1] = 0
	return l.d[:t]
}

// argmax returns the first index of the largest value in d.
func argmax(d []float64) int {
	c := 0
	for i, v := range d {
		if v > d[c] {
			c = i
		}
	}
	return c
}

// tql overwrites d with the eigenvalues of the symmetric tridiagonal matrix
// whose diagonal is d and whose off-diagonal is e (e[i] couples rows i and
// i+1; e[len(d)−1] is 0 and e is clobbered): implicit QL with Wilkinson
// shifts, EISPACK's tql2. It applies its rotations to the rows of z, each
// len(d) long: a row that starts as row r of the identity ends as row r of
// the eigenvector matrix, whose column c belongs to d[c]. Every product
// that feeds a sum is rounded on its own (float64(…)), so no host fuses it.
func tql(d, e, z []float64) {
	const eps = 0x1p-52
	n := len(d)
	var f, tst1 float64
	for l := 0; l < n; l++ {
		tst1 = max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// QL converges quadratically to cubically; the bound only keeps a
		// malformed input from looping.
		for iter := 0; m > l && iter < 64; iter++ {
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = float64(e[l] * (p + r))
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = float64(c * e[i])
				h = float64(c * p)
				r = hypot(p, e[i])
				e[i+1] = float64(s * r)
				s = e[i] / r
				c = p / r
				p = float64(c*d[i]) - float64(s*g)
				d[i+1] = h + float64(s*(float64(c*g)+float64(s*d[i])))
				for row := 0; row < len(z); row += n {
					zi, zj := z[row+i], z[row+i+1]
					z[row+i+1] = float64(s*zi) + float64(c*zj)
					z[row+i] = float64(c*zi) - float64(s*zj)
				}
			}
			p = float64(-s * s2 * c3 * el1 * e[l] / dl1)
			e[l] = float64(s * p)
			d[l] = float64(c * p)
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
}

// hypot is √(a²+b²) without math.Hypot, whose amd64 assembly and portable
// code may round differently; tql's operands are far from overflow.
func hypot(a, b float64) float64 {
	return math.Sqrt(float64(a*a) + float64(b*b))
}

// Norm2 returns the Euclidean norm of x, its squares summed in ascending
// order.
func Norm2(x []float64) float64 {
	var ss float64
	for _, v := range x {
		ss += float64(v * v)
	}
	return math.Sqrt(ss)
}

// dot returns Σ x[t]·y[t]: four partial sums over t mod 4, each in
// ascending t, added as (s₀+s₁)+(s₂+s₃).
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= len(x); t += 4 {
		a, b := x[t:t+4:t+4], y[t:t+4:t+4]
		s0 += float64(a[0] * b[0])
		s1 += float64(a[1] * b[1])
		s2 += float64(a[2] * b[2])
		s3 += float64(a[3] * b[3])
	}
	for ; t < len(x); t++ {
		s0 += float64(x[t] * y[t])
	}
	return (s0 + s1) + (s2 + s3)
}

// subDot sets w −= h·q and returns Σ next[t]·w[t] over the updated w,
// summed as dot sums. next may be w itself.
func subDot(w []float64, h float64, q, next []float64) float64 {
	q, next = q[:len(w)], next[:len(w)]
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= len(w); t += 4 {
		c, a := w[t:t+4:t+4], q[t:t+4:t+4]
		c[0] -= float64(h * a[0])
		c[1] -= float64(h * a[1])
		c[2] -= float64(h * a[2])
		c[3] -= float64(h * a[3])
		n := next[t : t+4 : t+4]
		s0 += float64(n[0] * c[0])
		s1 += float64(n[1] * c[1])
		s2 += float64(n[2] * c[2])
		s3 += float64(n[3] * c[3])
	}
	for ; t < len(w); t++ {
		w[t] -= float64(h * q[t])
		s0 += float64(next[t] * w[t])
	}
	return (s0 + s1) + (s2 + s3)
}

// residual returns ‖sv − λ·v‖, where sv holds S·v.
func residual(sv, v []float64, lambda float64) float64 {
	var ss float64
	for i, w := range sv {
		d := w - float64(lambda*v[i])
		ss += float64(d * d)
	}
	return math.Sqrt(ss)
}

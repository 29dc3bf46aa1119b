package ltbaseline

import (
	"math"
	"testing"
	"testing/quick"

	"parsimone/internal/matrix"
	"parsimone/internal/quickseed"
)

// The reference engine's power iteration, under the tests it carried when
// it was the consensus task's solver.

// dense is a row-major symmetric builder for test matrices.
type dense struct {
	n int
	a []float64
}

func newDense(n int) *dense { return &dense{n: n, a: make([]float64, n*n)} }

// Set assigns element (i, j) and its mirror (j, i).
func (d *dense) Set(i, j int, v float64) {
	d.a[i*d.n+j] = v
	d.a[j*d.n+i] = v
}

func (d *dense) csr(t testing.TB) *matrix.CSR {
	t.Helper()
	s, err := matrix.FromDense(d.n, d.a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// power runs powerIteration with fresh scratch.
func power(s *matrix.CSR, maxIter int, tol float64) powerResult {
	return powerIteration(s, maxIter, tol, make([]float64, s.N), make([]float64, s.N))
}

func TestPowerIterationDiagonal(t *testing.T) {
	s := newDense(3)
	s.Set(0, 0, 1)
	s.Set(1, 1, 5)
	s.Set(2, 2, 2)
	res := power(s.csr(t), 1000, 1e-12)
	if !res.converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.value-5) > 1e-6 {
		t.Fatalf("eigenvalue %v, want 5", res.value)
	}
	if math.Abs(math.Abs(res.vector[1])-1) > 1e-4 {
		t.Fatalf("eigenvector %v, want e1", res.vector)
	}
}

func TestPowerIterationBlockStructure(t *testing.T) {
	// Two blocks: a dense 3-clique (weight 1) and a 2-clique; the Perron
	// vector must concentrate on the 3-clique.
	s := newDense(5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s.Set(i, j, 1)
		}
	}
	for i := 3; i < 5; i++ {
		for j := 3; j < 5; j++ {
			s.Set(i, j, 1)
		}
	}
	res := power(s.csr(t), 1000, 1e-12)
	if math.Abs(res.value-3) > 1e-6 {
		t.Fatalf("eigenvalue %v, want 3", res.value)
	}
	for i := 0; i < 3; i++ {
		if res.vector[i] < 0.5 {
			t.Fatalf("clique member %d weight %v too small", i, res.vector[i])
		}
	}
	for i := 3; i < 5; i++ {
		if math.Abs(res.vector[i]) > 1e-4 {
			t.Fatalf("non-member %d weight %v too large", i, res.vector[i])
		}
	}
}

func TestPowerIterationZeroMatrix(t *testing.T) {
	s := newDense(4)
	res := power(s.csr(t), 100, 1e-10)
	if !res.converged || res.value != 0 {
		t.Fatalf("zero matrix: %+v", res)
	}
}

func TestPowerIterationEmpty(t *testing.T) {
	res := power(newDense(0).csr(t), 10, 1e-10)
	if !res.converged {
		t.Fatal("empty matrix must converge trivially")
	}
}

func TestPowerIterationDeterministic(t *testing.T) {
	s := newDense(6)
	for i := 0; i < 6; i++ {
		for j := i; j < 6; j++ {
			s.Set(i, j, float64((i*7+j*3)%5))
		}
	}
	a := power(s.csr(t), 500, 1e-12)
	b := power(s.csr(t), 500, 1e-12)
	if a.value != b.value || a.iters != b.iters {
		t.Fatal("power iteration not deterministic")
	}
	for i := range a.vector {
		if a.vector[i] != b.vector[i] {
			t.Fatal("eigenvector not deterministic")
		}
	}
}

// TestPowerIterationResidual: for symmetric non-negative matrices the
// returned pair must satisfy the eigen-equation approximately, and the
// reported Residual is exactly ‖Sv − λv‖ for it — converged or not.
func TestPowerIterationResidual(t *testing.T) {
	check := func(raw []uint8, capped bool) bool {
		n := 4
		if len(raw) < n*n {
			return true
		}
		s := newDense(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				s.Set(i, j, float64(raw[i*n+j]%8))
			}
		}
		m := s.csr(t)
		maxIter := 5000
		if capped {
			maxIter = 2
		}
		res := power(m, maxIter, 1e-12)
		y := make([]float64, n)
		m.MulVec(res.vector, y)
		var resid float64
		for i := range y {
			d := y[i] - res.value*res.vector[i]
			resid += d * d
		}
		if res.residual != math.Sqrt(resid) {
			t.Errorf("Residual %v, recomputed %v", res.residual, math.Sqrt(resid))
			return false
		}
		if !res.converged {
			return true // ties may not converge; not a correctness failure
		}
		// ‖Sv − λv‖ should be small relative to λ.
		return res.residual <= 1e-4*(1+res.value)
	}
	// A bipartite input (eigenvalues ±√43) on which λ is stationary after
	// two steps while the vector still oscillates: it must not converge.
	bipartite := make([]uint8, 16)
	for i, v := range []uint8{0, 0, 3, 0, 0, 0, 5, 0, 0, 0, 0, 3, 0, 0, 0, 0} {
		bipartite[i] = v
	}
	if !check(bipartite, false) {
		t.Fatal("the bipartite input converged to a pair whose residual exceeds the bound")
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

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

func (d *dense) csr(t testing.TB) *CSR {
	t.Helper()
	s, err := FromDense(d.n, d.a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// power runs PowerIteration with fresh scratch.
func power(s *CSR, maxIter int, tol float64) PowerResult {
	return PowerIteration(s, maxIter, tol, make([]float64, s.N), make([]float64, s.N))
}

// at reads cell (i, j) through the sparse rows.
func at(s *CSR, i, j int) float64 {
	cols, vals := s.Row(i)
	for k, c := range cols {
		if c == j {
			return vals[k]
		}
	}
	return 0
}

func TestFromDenseStoresNonZerosAscending(t *testing.T) {
	d := newDense(3)
	d.Set(0, 2, 5)
	d.Set(1, 1, 2)
	d.Set(2, 2, math.Copysign(0, -1)) // a negative zero is a zero cell
	s := d.csr(t)
	want := &CSR{N: 3, RowPtr: []int{0, 1, 2, 3}, Col: []int{2, 1, 0}, Val: []float64{5, 2, 5}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	if at(s, 0, 2) != 5 || at(s, 2, 0) != 5 || at(s, 0, 1) != 0 {
		t.Fatal("mirrored cell lost")
	}
}

func TestFromDenseValidates(t *testing.T) {
	if _, err := FromDense(2, []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong size accepted")
	}
	if _, err := FromDense(2, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("asymmetric accepted")
	}
	if _, err := FromDense(2, []float64{1, 2, 2, 4}); err != nil {
		t.Fatal(err)
	}
}

// TestFromDenseRejectsOutOfEnvelopeCells: the symmetry scan used to start at
// j = i+1 and compare with !=, so a NaN, infinite or negative cell on the
// diagonal (and a mirrored infinite or negative pair off it) was accepted
// and silently poisoned the Perron vector.
func TestFromDenseRejectsOutOfEnvelopeCells(t *testing.T) {
	for _, tc := range []struct {
		name string
		i, j int
		v    float64
	}{
		{"diagonal NaN", 1, 1, math.NaN()},
		{"diagonal +Inf", 2, 2, math.Inf(1)},
		{"off-diagonal +Inf", 0, 2, math.Inf(1)},
		{"off-diagonal -Inf", 0, 1, math.Inf(-1)},
		{"off-diagonal NaN", 1, 2, math.NaN()},
		{"negative cell", 0, 2, -0.25},
		{"negative diagonal", 0, 0, -1},
	} {
		d := newDense(3)
		d.Set(0, 0, 1)
		d.Set(1, 1, 1)
		d.Set(2, 2, 1)
		d.Set(tc.i, tc.j, tc.v)
		_, err := FromDense(3, d.a)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		i, j := min(tc.i, tc.j), max(tc.i, tc.j)
		if want := fmt.Sprintf("(%d,%d)", i, j); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name cell %s", tc.name, err, want)
		}
	}
}

func TestMulVec(t *testing.T) {
	d := newDense(2)
	d.Set(0, 0, 2)
	d.Set(0, 1, 1)
	d.Set(1, 1, 3)
	y := make([]float64, 2)
	d.csr(t).MulVec([]float64{1, 2}, y)
	if y[0] != 4 || y[1] != 7 {
		t.Fatalf("got %v, want [4 7]", y)
	}
}

// TestMulVecMatchesDenseBits: skipping the zero cells leaves every sum's
// bits where the dense row-by-row product puts them.
func TestMulVecMatchesDenseBits(t *testing.T) {
	check := func(raw []uint8, xs []float64) bool {
		n := 6
		if len(raw) < n*n || len(xs) < n {
			return true
		}
		d := newDense(n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = math.Abs(math.Mod(xs[i], 1e6)) // finite, like every iterate
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
			for j := i; j < n; j++ {
				if raw[i*n+j]%3 == 0 { // about two thirds zero
					d.Set(i, j, float64(raw[i*n+j])/7)
				}
			}
		}
		y := make([]float64, n)
		d.csr(t).MulVec(x, y)
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += d.a[i*n+j] * x[j]
			}
			if math.Float64bits(sum) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestRestrict(t *testing.T) {
	d := newDense(4)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			if (i+j)%3 != 1 { // leave some cells zero
				d.Set(i, j, float64(10*i+j+1))
			}
		}
	}
	full := d.csr(t)
	s := d.csr(t)
	s.Restrict([]int{0, -1, 1, 2})
	keep := []int{0, 2, 3}
	if s.N != 3 || len(s.RowPtr) != 4 || s.RowPtr[3] != len(s.Col) || len(s.Col) != len(s.Val) {
		t.Fatalf("restricted shape wrong: %+v", s)
	}
	for a, i := range keep {
		cols, _ := s.Row(a)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Fatalf("row %d columns not ascending: %v", a, cols)
			}
		}
		for b, j := range keep {
			if at(s, a, b) != at(full, i, j) {
				t.Fatalf("cell (%d,%d) = %v, want %v", a, b, at(s, a, b), at(full, i, j))
			}
		}
	}
	// Restricting again composes; dropping everything leaves the empty matrix.
	s.Restrict([]int{-1, 0, 1})
	if s.N != 2 || at(s, 0, 1) != at(full, 2, 3) || at(s, 1, 1) != at(full, 3, 3) {
		t.Fatalf("second restriction wrong: %+v", s)
	}
	s.Restrict([]int{-1, -1})
	if s.N != 0 || len(s.Col) != 0 || len(s.RowPtr) != 1 {
		t.Fatalf("empty restriction wrong: %+v", s)
	}
}

func TestNorm2(t *testing.T) {
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("3-4-5")
	}
	if Norm2(nil) != 0 {
		t.Fatal("empty")
	}
}

func TestPowerIterationDiagonal(t *testing.T) {
	s := newDense(3)
	s.Set(0, 0, 1)
	s.Set(1, 1, 5)
	s.Set(2, 2, 2)
	res := power(s.csr(t), 1000, 1e-12)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.Value-5) > 1e-6 {
		t.Fatalf("eigenvalue %v, want 5", res.Value)
	}
	if math.Abs(math.Abs(res.Vector[1])-1) > 1e-4 {
		t.Fatalf("eigenvector %v, want e1", res.Vector)
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
	if math.Abs(res.Value-3) > 1e-6 {
		t.Fatalf("eigenvalue %v, want 3", res.Value)
	}
	for i := 0; i < 3; i++ {
		if res.Vector[i] < 0.5 {
			t.Fatalf("clique member %d weight %v too small", i, res.Vector[i])
		}
	}
	for i := 3; i < 5; i++ {
		if math.Abs(res.Vector[i]) > 1e-4 {
			t.Fatalf("non-member %d weight %v too large", i, res.Vector[i])
		}
	}
}

func TestPowerIterationZeroMatrix(t *testing.T) {
	s := newDense(4)
	res := power(s.csr(t), 100, 1e-10)
	if !res.Converged || res.Value != 0 {
		t.Fatalf("zero matrix: %+v", res)
	}
}

func TestPowerIterationEmpty(t *testing.T) {
	res := power(newDense(0).csr(t), 10, 1e-10)
	if !res.Converged {
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
	if a.Value != b.Value || a.Iters != b.Iters {
		t.Fatal("power iteration not deterministic")
	}
	for i := range a.Vector {
		if a.Vector[i] != b.Vector[i] {
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
		m.MulVec(res.Vector, y)
		var resid float64
		for i := range y {
			d := y[i] - res.Value*res.Vector[i]
			resid += d * d
		}
		if res.Residual != math.Sqrt(resid) {
			t.Errorf("Residual %v, recomputed %v", res.Residual, math.Sqrt(resid))
			return false
		}
		if !res.Converged {
			return true // ties may not converge; not a correctness failure
		}
		// ‖Sv − λv‖ should be small relative to λ.
		return res.Residual <= 1e-4*(1+res.Value)
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
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPowerIteration480 is the consensus task's first round at the
// benchmark's `cluster` size: 480 variables in cliques of 2–30 (about 4 % of
// the cells non-zero), slightly different weights so the Perron vector
// localizes.
func BenchmarkPowerIteration480(b *testing.B) {
	const n = 480
	d := newDense(n)
	for lo, size := 0, 2; lo < n; lo, size = lo+size, size%30+3 {
		hi := min(lo+size, n)
		for i := lo; i < hi; i++ {
			for j := i; j < hi; j++ {
				d.Set(i, j, 1-float64(lo)/(4*n))
			}
		}
	}
	s := d.csr(b)
	x, z := make([]float64, n), make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := PowerIteration(s, 1000, 1e-10, x, z); !res.Converged {
			b.Fatal("did not converge")
		}
	}
	b.ReportMetric(float64(len(s.Val))/(n*n), "density")
}

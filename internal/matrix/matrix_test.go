package matrix

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"parsimone/internal/quickseed"
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

// dominant runs the Lanczos solver with fresh scratch.
func dominant(s *CSR, maxProducts int, tol float64) Eigenpair {
	return NewLanczos(s.N).Dominant(s, maxProducts, tol)
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
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: quickseed.Rand(t, 1)}); err != nil {
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

func TestLanczosDiagonal(t *testing.T) {
	s := newDense(3)
	s.Set(0, 0, 1)
	s.Set(1, 1, 5)
	s.Set(2, 2, 2)
	res := dominant(s.csr(t), 1000, 1e-12)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.Value-5) > 1e-9 {
		t.Fatalf("eigenvalue %v, want 5", res.Value)
	}
	if math.Abs(res.Vector[1]-1) > 1e-6 {
		t.Fatalf("eigenvector %v, want e1", res.Vector)
	}
}

func TestLanczosBlockStructure(t *testing.T) {
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
	res := dominant(s.csr(t), 1000, 1e-12)
	if !res.Converged || math.Abs(res.Value-3) > 1e-9 {
		t.Fatalf("eigenvalue %v (converged %v), want 3", res.Value, res.Converged)
	}
	for i := 0; i < 3; i++ {
		if res.Vector[i] < 0.5 {
			t.Fatalf("clique member %d weight %v too small", i, res.Vector[i])
		}
	}
	for i := 3; i < 5; i++ {
		if math.Abs(res.Vector[i]) > 1e-6 {
			t.Fatalf("non-member %d weight %v too large", i, res.Vector[i])
		}
	}
	// Two distinct block sizes: two products span the start vector's
	// Krylov space, and one more confirms the pair.
	if res.Products != 3 {
		t.Fatalf("%d products, want 3", res.Products)
	}
}

func TestLanczosZeroMatrix(t *testing.T) {
	res := dominant(newDense(4).csr(t), 100, 1e-10)
	if !res.Converged || res.Value != 0 {
		t.Fatalf("zero matrix: %+v", res)
	}
	for _, v := range res.Vector {
		if v != 0.5 {
			t.Fatalf("zero matrix: vector %v, want the uniform start", res.Vector)
		}
	}
}

func TestLanczosEmpty(t *testing.T) {
	if res := dominant(newDense(0).csr(t), 10, 1e-10); !res.Converged || res.Products != 0 {
		t.Fatalf("empty matrix must converge trivially: %+v", res)
	}
}

// TestLanczosDeterministic: one scratch reused across solves of matrices
// of different sizes returns the bits a fresh scratch does.
func TestLanczosDeterministic(t *testing.T) {
	s := newDense(6)
	for i := 0; i < 6; i++ {
		for j := i; j < 6; j++ {
			s.Set(i, j, float64((i*7+j*3)%5))
		}
	}
	small := newDense(2)
	small.Set(0, 1, 3)
	small.Set(1, 1, 1)
	a := dominant(s.csr(t), 500, 1e-12)
	l := NewLanczos(6)
	l.Dominant(small.csr(t), 500, 1e-12)
	b := l.Dominant(s.csr(t), 500, 1e-12)
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) || a.Products != b.Products {
		t.Fatal("Lanczos solve not deterministic")
	}
	for i := range a.Vector {
		if math.Float64bits(a.Vector[i]) != math.Float64bits(b.Vector[i]) {
			t.Fatal("eigenvector not deterministic")
		}
	}
}

// TestLanczosIdenticalRowsTie: entries that rows with identical cells act
// on stay bit-identical, so a peeling's tie-break by index sees exact
// ties. Rows 0, 2 and 5 are identical (cells at columns 0, 2, 5 and 1),
// and so are rows 3 and 4.
func TestLanczosIdenticalRowsTie(t *testing.T) {
	s := newDense(6)
	for _, i := range []int{0, 2, 5} {
		for _, j := range []int{0, 2, 5} {
			s.Set(i, j, 0.75)
		}
		s.Set(i, 1, 0.25)
	}
	s.Set(1, 1, 1)
	s.Set(3, 3, 0.5)
	s.Set(4, 4, 0.5)
	s.Set(3, 4, 0.5)
	s.Set(1, 3, 0.125)
	s.Set(1, 4, 0.125)
	res := dominant(s.csr(t), 1000, 1e-10)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	v := res.Vector
	for _, pair := range [][2]int{{0, 2}, {0, 5}, {3, 4}} {
		if math.Float64bits(v[pair[0]]) != math.Float64bits(v[pair[1]]) {
			t.Fatalf("entries %d and %d of %v differ", pair[0], pair[1], v)
		}
	}
}

// TestLanczosRestarts: the path-graph matrix (2 on the diagonal, 1 beside
// it) of size 300 has the eigenvalues 2 + 2·cos(kπ/301), so close at the
// top that one basis of maxBasis vectors cannot meet tol; the solver must
// restart from its Ritz vector and still find the largest.
func TestLanczosRestarts(t *testing.T) {
	const n = 300
	s := newDense(n)
	for i := 0; i < n; i++ {
		s.Set(i, i, 2)
		if i+1 < n {
			s.Set(i, i+1, 1)
		}
	}
	res := dominant(s.csr(t), 20000, 1e-10)
	want := 2 + 2*math.Cos(math.Pi/(n+1))
	if !res.Converged || math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("eigenvalue %v (converged %v), want %v", res.Value, res.Converged, want)
	}
	if res.Products <= maxBasis {
		t.Fatalf("%d products: the solve never restarted", res.Products)
	}
	for i, v := range res.Vector {
		if !(v > 0) {
			t.Fatalf("Perron vector entry %d = %v, want positive", i, v)
		}
	}
}

// TestLanczosCap: a solve stopped by its product cap reports the products
// it made, no convergence, and the residual estimate of its Ritz pair. On
// this matrix the start vector's Krylov space has two dimensions: under a
// cap of 2 the estimate meets tol, but no product is left to confirm the
// pair, and under 3 it converges.
func TestLanczosCap(t *testing.T) {
	s := newDense(4)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			s.Set(i, j, float64(1+(i*5+j)%3))
		}
	}
	m := s.csr(t)
	if res := dominant(m, 1, 1e-10); res.Converged || res.Products != 1 || !(res.Residual > 0) || !(res.Value > 0) {
		t.Fatalf("cap 1: %+v", res)
	}
	if res := dominant(m, 2, 1e-10); res.Converged || res.Products != 2 || res.Residual > 1e-10*(1+res.Value) {
		t.Fatalf("cap 2: %+v", res)
	}
	if res := dominant(m, 3, 1e-10); !res.Converged || res.Products != 3 {
		t.Fatalf("cap 3: %+v", res)
	}
}

// TestLanczosResidual: for symmetric non-negative matrices the returned
// pair satisfies the eigen-equation, its Residual is exactly ‖Sv − λv‖,
// and λ is the largest eigenvalue: no Rayleigh quotient of a unit basis
// vector or of the uniform vector exceeds it.
func TestLanczosResidual(t *testing.T) {
	check := func(raw []uint8) bool {
		n := 1 + len(raw)%9
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
		res := dominant(m, 20000, 1e-10)
		if !res.Converged {
			t.Errorf("%d×%d matrix %v did not converge", n, n, s.a)
			return false
		}
		y := make([]float64, n)
		m.MulVec(res.Vector, y)
		if r := residual(y, res.Vector, res.Value); res.Residual != r || r > 1e-4*(1+res.Value) {
			t.Errorf("Residual %v, recomputed %v", res.Residual, r)
			return false
		}
		var all float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				all += s.a[i*n+j]
			}
			if s.a[i*n+i] > res.Value+1e-9 {
				return false
			}
		}
		return all/float64(n) <= res.Value+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

// TestTQLToeplitz: the tridiagonal eigensolver against the closed form of
// the matrix with 2 on the diagonal and 1 beside it, eigenvalues
// 2 + 2·cos(kπ/(n+1)), and its rotations against T·z = λ·z.
func TestTQLToeplitz(t *testing.T) {
	const n = 12
	d, e, z := make([]float64, n), make([]float64, n), make([]float64, n*n)
	for i := range d {
		d[i], e[i], z[i*n+i] = 2, 1, 1
	}
	e[n-1] = 0
	tql(d, e, z)
	got := append([]float64(nil), d...)
	sort.Float64s(got)
	for k := 1; k <= n; k++ {
		want := 2 + 2*math.Cos(float64(n+1-k)*math.Pi/(n+1))
		if math.Abs(got[k-1]-want) > 1e-12 {
			t.Fatalf("eigenvalue %d: %v, want %v", k, got[k-1], want)
		}
	}
	for c := 0; c < n; c++ {
		for i := 0; i < n; i++ {
			tz := 2 * z[i*n+c]
			if i > 0 {
				tz += z[(i-1)*n+c]
			}
			if i+1 < n {
				tz += z[(i+1)*n+c]
			}
			if math.Abs(tz-d[c]*z[i*n+c]) > 1e-12 {
				t.Fatalf("column %d is not the eigenvector of %v", c, d[c])
			}
		}
	}
}

// BenchmarkDominant480 is the consensus task's first round at the
// benchmark's `cluster` size: 480 variables in cliques of 2–30 (about 4 % of
// the cells non-zero), slightly different weights so the Perron vector
// localizes.
func BenchmarkDominant480(b *testing.B) {
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
	l := NewLanczos(n)
	var products int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := l.Dominant(s, 20000, 1e-10)
		if !res.Converged {
			b.Fatal("did not converge")
		}
		products = res.Products
	}
	b.ReportMetric(float64(len(s.Val))/(n*n), "density")
	b.ReportMetric(float64(products), "products/op")
}

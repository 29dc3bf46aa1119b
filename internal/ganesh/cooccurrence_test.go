package ganesh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parsimone/internal/matrix"
	"parsimone/internal/quickseed"
)

// coThresholds are the co-occurrence thresholds the builder is checked at:
// none, the default, the benchmark's strict one and both ends.
var coThresholds = []float64{0, 0.25, 0.5, 0.9, 1}

// checkCoOccurrenceCSR compares the sparse builder with the dense matrix
// it replaces: the same RowPtr and Col, and the same bits in Val, as
// matrix.FromDense of CoOccurrence; and every stored cell is finite,
// positive and mirrored.
func checkCoOccurrenceCSR(n int, ens [][][]int, threshold float64) error {
	got := CoOccurrenceCSR(n, ens, threshold)
	want, err := matrix.FromDense(n, CoOccurrence(n, ens, threshold))
	if err != nil {
		return err
	}
	if got.N != n || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
		return fmt.Errorf("n=%d G=%d t=%v: structure differs from the dense matrix's", n, len(ens), threshold)
	}
	for k, v := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(v) {
			return fmt.Errorf("n=%d G=%d t=%v: cell %d holds %v, dense %v", n, len(ens), threshold, k, got.Val[k], v)
		}
	}
	for i := 0; i < n; i++ {
		cols, vals := got.Row(i)
		for k, j := range cols {
			v := vals[k]
			if !(v > 0) || math.IsInf(v, 1) {
				return fmt.Errorf("cell (%d,%d) = %v is not finite and positive", i, j, v)
			}
			mc, mv := got.Row(j)
			at := sort.SearchInts(mc, i)
			if at == len(mc) || mc[at] != i || math.Float64bits(mv[at]) != math.Float64bits(v) {
				return fmt.Errorf("cell (%d,%d) = %v is not mirrored", i, j, v)
			}
		}
	}
	return nil
}

// randomEnsembles draws g partitions of up to n variables: each variable
// joins one of k clusters (k random per snapshot) or, one time in twenty,
// none; a quarter of the clusters list their members out of order.
func randomEnsembles(r *rand.Rand, n, g int) [][][]int {
	ens := make([][][]int, g)
	for s := range ens {
		k := 1 + r.Intn(1+n/(1+r.Intn(8)))
		members := make([][]int, k)
		for i := 0; i < n; i++ {
			if r.Intn(20) > 0 {
				c := r.Intn(k)
				members[c] = append(members[c], i)
			}
		}
		for _, m := range members {
			if len(m) == 0 {
				continue
			}
			if r.Intn(4) == 0 {
				r.Shuffle(len(m), func(a, b int) { m[a], m[b] = m[b], m[a] })
			}
			ens[s] = append(ens[s], m)
		}
	}
	return ens
}

// TestCoOccurrenceCSRMatchesDense: the sparse builder against the dense
// matrix over random ensembles of up to 200 variables, at every G from 1
// to 10 (at G ∈ {6, 7, 10} the top value is 1 − ulp) and every threshold.
func TestCoOccurrenceCSRMatchesDense(t *testing.T) {
	for g := 1; g <= 10; g++ {
		for _, threshold := range coThresholds {
			check := func(seed int64, size uint8) bool {
				n := 1 + int(size)%200
				if err := checkCoOccurrenceCSR(n, randomEnsembles(rand.New(rand.NewSource(seed)), n, g), threshold); err != nil {
					t.Error(err)
					return false
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 6, Rand: quickseed.Rand(t, int64(g))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := checkCoOccurrenceCSR(5, nil, 0.25); err != nil {
		t.Fatal(err)
	}
}

// FuzzCoOccurrenceCSR decodes an ensemble from the fuzz bytes — n, G and
// the threshold from the first three, then one byte per (snapshot,
// variable): a cluster label, or no cluster from 250 up; the fourth byte's
// low bit lists every cluster in descending order — and holds the sparse
// builder to the dense matrix as TestCoOccurrenceCSRMatchesDense does.
func FuzzCoOccurrenceCSR(f *testing.F) {
	f.Add([]byte{7, 2, 1, 0, 1, 1, 2, 2, 3, 3, 3, 1, 1, 1, 2, 2, 255, 3})
	f.Add([]byte{12, 5, 4, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{3, 9, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		n, g, threshold := 1+int(at(0))%64, 1+int(at(1))%10, coThresholds[int(at(2))%len(coThresholds)]
		ens := make([][][]int, g)
		next := 4
		for s := range ens {
			var members [16][]int
			for i := 0; i < n; i, next = i+1, next+1 {
				if b := at(next); b < 250 {
					members[b%16] = append(members[b%16], i)
				}
			}
			for _, m := range members {
				if len(m) > 0 {
					if at(3)&1 == 1 {
						slices.Reverse(m)
					}
					ens[s] = append(ens[s], m)
				}
			}
		}
		if err := checkCoOccurrenceCSR(n, ens, threshold); err != nil {
			t.Fatal(err)
		}
	})
}

package consensus

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"parsimone/internal/ganesh"
	"parsimone/internal/obs"
	"parsimone/internal/prng"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current implementation")

// goldenPeel is one consensus.extract event; the eigenvalue is pinned by its
// bits (as hex: a JSON number cannot hold a uint64).
type goldenPeel struct {
	EigenvalueBits string `json:"eigenvalue_bits"`
	Iters          int    `json:"iters"`
	Remaining      int    `json:"remaining"`
	Extracted      int    `json:"extracted"`
	Converged      bool   `json:"converged"`
}

type goldenCase struct {
	Name     string       `json:"name"`
	Peels    []goldenPeel `json:"peels"`
	Clusters [][]int      `json:"clusters"`
	Err      string       `json:"err,omitempty"`
}

// noisyEnsemble samples `runs` variable partitions of n variables around a
// ground truth of consecutive blocks with the given sizes (the remaining
// variables are isolated): each block member stays with its block with
// probability 1−flip and otherwise moves to a uniformly drawn block.
func noisyEnsemble(n int, sizes []int, runs int, flip float64, seed uint64) [][][]int {
	g := prng.New(seed)
	ensembles := make([][][]int, runs)
	for r := range ensembles {
		members := make([][]int, len(sizes))
		var snap [][]int
		x := 0
		for b, size := range sizes {
			for k := 0; k < size; k, x = k+1, x+1 {
				to := b
				if g.Float64() < flip {
					to = g.Intn(len(sizes))
				}
				members[to] = append(members[to], x)
			}
		}
		for _, m := range members {
			if len(m) > 0 {
				snap = append(snap, m)
			}
		}
		for ; x < n; x++ {
			snap = append(snap, []int{x})
		}
		ensembles[r] = snap
	}
	return ensembles
}

// blockSizes draws block sizes in [lo, hi] until they cover about `cover`
// variables.
func blockSizes(cover, lo, hi int, seed uint64) []int {
	g := prng.New(seed)
	var sizes []int
	for total := 0; total < cover; {
		s := lo + g.Intn(hi-lo+1)
		sizes = append(sizes, s)
		total += s
	}
	return sizes
}

// strict480 is the benchmark's `cluster` shape: three runs over 480 variables
// in blocks of 2–6, thresholded at 0.9 (a few percent of the cells non-zero).
func strict480() []float64 {
	ens := noisyEnsemble(480, blockSizes(470, 2, 6, 480), 3, 0.03, 481)
	return ganesh.CoOccurrence(480, ens, 0.9)
}

type goldenInput struct {
	name string
	n    int
	a    []float64
	pl   peeling
}

// goldenInputs is the seeded grid the golden file pins: every regime the
// peeling loop has (perfect and noisy blocks, both co-occurrence thresholds
// in use, the benchmark's N=480 block structure, isolated variables, the
// zero matrix, and power iterations that hit the cap before and after a
// successful extraction).
func goldenInputs() []goldenInput {
	noisy := noisyEnsemble(60, []int{12, 9, 9, 7, 6, 5}, 10, 0.2, 7)
	loose480 := noisyEnsemble(480, blockSizes(470, 2, 6, 480), 8, 0.1, 482)
	// A 6-clique over two nearly tied 4-cliques: the first peel converges
	// fast, the second crawls (eigenvalue ratio 0.99).
	tied := block(14, [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}, {10, 11, 12, 13}})
	for _, i := range []int{10, 11, 12, 13} {
		for _, j := range []int{10, 11, 12, 13} {
			if i != j {
				tied[i*14+j] = 0.98
			}
		}
	}
	for i := 6; i < 14; i++ {
		for j := 6; j < 14; j++ {
			if tied[i*14+j] == 0 {
				tied[i*14+j] = 0.01
			}
		}
	}
	identity := block(9, nil)
	def := peelingOf(Params{})
	capped := func(maxIter int) peeling { return peelingOf(Params{MaxIter: maxIter}) }
	noEigenStop := def
	noEigenStop.minEigenvalue = -1
	min6 := noEigenStop
	min6.minClusterSize, min6.supportFrac = 6, 0.8
	return []goldenInput{
		{"perfect-7", 7, block(7, [][]int{{0, 1, 2, 3}, {4, 5, 6}}), def},
		{"perfect-10-interleaved", 10, block(10, [][]int{{0, 3, 5}, {1, 2, 8}, {4, 6, 7, 9}}), def},
		{"noisy-60-t0.25", 60, ganesh.CoOccurrence(60, noisy, 0.25), def},
		{"noisy-60-t0.9", 60, ganesh.CoOccurrence(60, noisy, 0.9), def},
		{"noisy-60-t0.25-min6-support0.8", 60, ganesh.CoOccurrence(60, noisy, 0.25), min6},
		{"blocks-480-t0.9", 480, strict480(), def},
		{"blocks-480-t0.25", 480, ganesh.CoOccurrence(480, loose480, 0.25), capped(400)},
		{"isolated-9", 9, identity, def},
		{"isolated-around-blocks-12", 12, block(12, [][]int{{2, 3, 4}, {8, 9}}), def},
		{"zero-6", 6, make([]float64, 36), def},
		{"zero-6-no-eigen-stop", 6, make([]float64, 36), noEigenStop},
		{"capped-first-peel", 60, ganesh.CoOccurrence(60, noisy, 0.25), capped(3)},
		{"capped-after-extraction", 14, tied, capped(120)},
	}
}

func runGolden(n int, a []float64, pl peeling) goldenCase {
	rec := obs.NewRecorder(0)
	clusters, err := peel(recording(rec), n, a, pl)
	gc := goldenCase{Clusters: clusters, Peels: []goldenPeel{}}
	if gc.Clusters == nil {
		gc.Clusters = [][]int{}
	}
	if err != nil {
		gc.Err = err.Error()
	}
	for _, ev := range rec.Events() {
		c := ev.Consensus
		gc.Peels = append(gc.Peels, goldenPeel{
			EigenvalueBits: strconv.FormatUint(math.Float64bits(c.Eigenvalue), 16),
			Iters:          c.Iters, Remaining: c.Remaining, Extracted: c.Extracted, Converged: c.Converged,
		})
	}
	return gc
}

// TestGolden pins Cluster against testdata/golden.json, recorded from the
// dense two-product implementation this package replaced: per peeling round
// the eigenvalue bits, iteration count, remaining and extracted sizes, and
// the clusters. `go test -run TestGolden -update` rewrites the file and must
// leave it unchanged.
func TestGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	var got []goldenCase
	for _, in := range goldenInputs() {
		gc := runGolden(in.n, in.a, in.pl)
		gc.Name = in.name
		got = append(got, gc)
	}
	if *update {
		// One case per line keeps the file small and its diffs readable.
		lines := make([][]byte, len(got))
		for i, gc := range got {
			var err error
			if lines[i], err = json.Marshal(gc); err != nil {
				t.Fatal(err)
			}
		}
		out := append(append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...), "\n]\n"...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s differs from the golden record:\n%s", got[i].Name, firstDiff(got[i], want[i]))
		}
	}
}

func firstDiff(got, want goldenCase) string {
	if got.Name != want.Name {
		return fmt.Sprintf("name %q, want %q", got.Name, want.Name)
	}
	for i := 0; i < len(got.Peels) && i < len(want.Peels); i++ {
		if got.Peels[i] != want.Peels[i] {
			return fmt.Sprintf("peel %d: %+v, want %+v", i, got.Peels[i], want.Peels[i])
		}
	}
	if len(got.Peels) != len(want.Peels) {
		return fmt.Sprintf("%d peels, want %d", len(got.Peels), len(want.Peels))
	}
	if got.Err != want.Err {
		return fmt.Sprintf("err %q, want %q", got.Err, want.Err)
	}
	return fmt.Sprintf("clusters %v, want %v", got.Clusters, want.Clusters)
}

// BenchmarkCluster480 peels the golden grid's N=480 strict-threshold matrix
// (the benchmark's `cluster` shape: ~117 rounds over a block-structured
// matrix a few percent dense), conversion from dense included.
func BenchmarkCluster480(b *testing.B) {
	a := strict480()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(480, a, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

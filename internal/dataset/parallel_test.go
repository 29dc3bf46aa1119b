package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"parsimone/internal/comm"
)

func writeTestFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.tsv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTSVParallelMatchesSequential(t *testing.T) {
	d := New(13, 7)
	for i := range d.Values {
		d.Values[i] = float64(i) * 1.5
	}
	path := filepath.Join(t.TempDir(), "d.tsv")
	if err := d.SaveTSV(path); err != nil {
		t.Fatal(err)
	}
	want, err := LoadTSV(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 5, 13, 16} {
		_, err := comm.Run(p, func(c *comm.Comm) error {
			got, err := LoadTSVParallel(c, path)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got.Values, want.Values) || !reflect.DeepEqual(got.Names, want.Names) {
				t.Errorf("p=%d rank %d: parallel load differs", p, c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestLoadTSVParallelHeader(t *testing.T) {
	path := writeTestFile(t, "gene\tobs0\tobs1\ng1\t1\t2\ng2\t3\t4\n")
	_, err := comm.Run(3, func(c *comm.Comm) error {
		got, err := LoadTSVParallel(c, path)
		if err != nil {
			return err
		}
		if got.N != 2 || got.M != 2 || got.At(1, 1) != 4 {
			t.Errorf("rank %d: got %+v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadTSVParallelMissingFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.tsv")
	_, err := comm.Run(2, func(c *comm.Comm) error {
		if _, err := LoadTSVParallel(c, missing); err == nil {
			t.Errorf("rank %d: missing file accepted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadTSVParallelParseError(t *testing.T) {
	// The bad value lands in one rank's block; every rank must return the
	// error (collective failure, no deadlock).
	path := writeTestFile(t, "g1\t1\t2\ng2\tbad\t4\ng3\t5\t6\n")
	_, err := comm.Run(3, func(c *comm.Comm) error {
		if _, err := LoadTSVParallel(c, path); err == nil {
			t.Errorf("rank %d: parse error not reported", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadTSVParallelRagged(t *testing.T) {
	path := writeTestFile(t, "g1\t1\t2\ng2\t3\n")
	_, err := comm.Run(2, func(c *comm.Comm) error {
		if _, err := LoadTSVParallel(c, path); err == nil {
			t.Errorf("rank %d: ragged file accepted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadTSVParallelEmpty(t *testing.T) {
	path := writeTestFile(t, "gene\tobs0\n")
	_, err := comm.Run(2, func(c *comm.Comm) error {
		if _, err := LoadTSVParallel(c, path); err == nil {
			t.Errorf("rank %d: empty file accepted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLoadTSVParallelAgreesWithLoadTSV: at every world size the parallel
// loader returns what LoadTSV returns — the same data, or the same refusal
// with the same text — on every FuzzReadTSV seed, and on a file whose
// header follows blank lines. Only physical line 1 can be a header, so that
// file is refused: its header is a data row with non-numeric values.
func TestLoadTSVParallelAgreesWithLoadTSV(t *testing.T) {
	inputs := append(slices.Clone(tsvSeeds), "\n\ngene\tobs0\tobs1\nG0\t1\t2\n")
	for i, input := range inputs {
		path := writeTestFile(t, input)
		want, wantErr := LoadTSV(path)
		for _, p := range []int{1, 2, 3} {
			_, err := comm.Run(p, func(c *comm.Comm) error {
				got, err := LoadTSVParallel(c, path)
				if diff := sameOutcome(got, err, want, wantErr); diff != nil {
					t.Errorf("input %d, p=%d, rank %d: %v", i, p, c.Rank(), diff)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("input %d, p=%d: %v", i, p, err)
			}
		}
	}
}

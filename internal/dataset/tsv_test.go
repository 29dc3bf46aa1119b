package dataset

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// bitPatterns returns n float64 values from a fixed xorshift sequence of
// bit patterns: every sign, exponent and mantissa shape, NaNs and
// infinities included.
func bitPatterns(n int) []float64 {
	out := make([]float64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = math.Float64frombits(x)
	}
	return out
}

// TestWriteTSVMatchesReference: WriteTSV writes the bytes the fmt-based
// writer wrote, on the values where formatting differs most — signed
// zeros, subnormals, the extremes, infinities, NaN, integers past 2^53 and
// arbitrary bit patterns — and on names and a zero-column matrix.
func TestWriteTSVMatchesReference(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.1, 1.0 / 3, 1e20, 1e21, 1e-4, 1e-5, 123456789,
		float64(1<<53) + 2, 9007199254740993, -2.5e-300,
	}
	values := append(special, bitPatterns(4000)...)
	const m = 11
	d := New(len(values)/m, m)
	copy(d.Values, values)
	d.Names[1] = "YFG1 with spaces"
	d.Names[2] = ""
	for _, c := range []*Data{d, New(3, 0), New(0, 4)} {
		var got, want bytes.Buffer
		if err := c.WriteTSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteTSV(c, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d×%d: WriteTSV output differs from the reference writer's (%d vs %d bytes)",
				c.N, c.M, got.Len(), want.Len())
		}
	}
}

// TestReadTSVWideRows: rows several times wider than the reader's initial
// buffer grow it and are read as the reference reader reads them.
func TestReadTSVWideRows(t *testing.T) {
	d := New(3, 40000)
	copy(d.Values, bitPatterns(len(d.Values)))
	for i, v := range d.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			d.Values[i] = float64(i)
		}
	}
	path := filepath.Join(t.TempDir(), "wide.tsv")
	if err := d.SaveTSV(path); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(text)/4 < lineBuf {
		t.Fatalf("fixture rows are %d bytes, not wider than the %d-byte initial buffer", len(text)/4, lineBuf)
	}
	want, wantErr := referenceReadTSV(bytes.NewReader(text))
	got, err := ReadTSV(bytes.NewReader(text))
	if diff := sameOutcome(got, err, want, wantErr); diff != nil {
		t.Fatalf("ReadTSV: %v", diff)
	}
	if diff := sameData(got, d); diff != nil {
		t.Fatalf("round trip: %v", diff)
	}
}

// tsvFixture returns an n×m data set with full-precision values, like a
// synthetic or normalized expression matrix, and its TSV text.
func tsvFixture(tb testing.TB, n, m int) (*Data, []byte) {
	d := New(n, m)
	for i := range d.Values {
		d.Values[i] = math.Sqrt(float64(i+2)) - 40
	}
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return d, buf.Bytes()
}

// TestReadTSVAllocsPerRow pins the reader's machine-independent cost: one
// allocation per row (its name), plus a handful per file for the growing
// name and value slices. The reader it replaced made three per row.
func TestReadTSVAllocsPerRow(t *testing.T) {
	const n, m = 480, 32
	_, text := tsvFixture(t, n, m)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadTSV(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / n; perRow > 1.1 {
		t.Fatalf("ReadTSV makes %.0f allocations for %d rows (%.2f a row), want at most 1.1 a row", allocs, n, perRow)
	}
}

// allocsPerRow reports the benchmark loop's allocations per data row.
func allocsPerRow(b *testing.B, rows int, loop func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	loop()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*rows), "allocs/row")
}

// BenchmarkReadTSV parses the cluster-sized (480×32) and serve-sized
// (96×32) matrices; MB/s is of TSV text.
func BenchmarkReadTSV(b *testing.B) {
	for _, size := range [][2]int{{480, 32}, {96, 32}} {
		_, text := tsvFixture(b, size[0], size[1])
		b.Run(fmt.Sprintf("%dx%d", size[0], size[1]), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			allocsPerRow(b, size[0], func() {
				for range b.N {
					if _, err := ReadTSV(bytes.NewReader(text)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkWriteTSV formats the same matrices.
func BenchmarkWriteTSV(b *testing.B) {
	for _, size := range [][2]int{{480, 32}, {96, 32}} {
		d, text := tsvFixture(b, size[0], size[1])
		b.Run(fmt.Sprintf("%dx%d", size[0], size[1]), func(b *testing.B) {
			var buf bytes.Buffer
			buf.Grow(len(text))
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			allocsPerRow(b, size[0], func() {
				for range b.N {
					buf.Reset()
					if err := d.WriteTSV(&buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

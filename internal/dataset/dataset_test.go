package dataset

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"parsimone/internal/quickseed"
)

func fill(d *Data) {
	for i := 0; i < d.N; i++ {
		for j := 0; j < d.M; j++ {
			d.Set(i, j, float64(i*100+j))
		}
	}
}

func TestNewShape(t *testing.T) {
	d := New(3, 4)
	if d.N != 3 || d.M != 4 || len(d.Values) != 12 || len(d.Names) != 3 {
		t.Fatalf("bad shape: %+v", d)
	}
	if d.Names[0] != "G0000" || d.Names[2] != "G0002" {
		t.Fatalf("bad names: %v", d.Names)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAtSetRow(t *testing.T) {
	d := New(2, 3)
	d.Set(1, 2, 7.5)
	if d.At(1, 2) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	row := d.Row(1)
	if len(row) != 3 || row[2] != 7.5 {
		t.Fatalf("Row = %v", row)
	}
	row[0] = 9 // aliasing
	if d.At(1, 0) != 9 {
		t.Fatal("Row must alias storage")
	}
}

func TestSubset(t *testing.T) {
	d := New(4, 5)
	fill(d)
	s, err := d.Subset(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 2 || s.M != 3 {
		t.Fatalf("shape %dx%d", s.N, s.M)
	}
	if s.At(1, 2) != 102 {
		t.Fatalf("value %v", s.At(1, 2))
	}
	// Deep copy: mutating the subset must not touch the original.
	s.Set(0, 0, -1)
	if d.At(0, 0) == -1 {
		t.Fatal("subset aliases original")
	}
}

func TestSubsetBounds(t *testing.T) {
	d := New(4, 5)
	for _, c := range [][2]int{{0, 3}, {5, 3}, {3, 0}, {3, 6}, {-1, 2}} {
		if _, err := d.Subset(c[0], c[1]); err == nil {
			t.Errorf("Subset(%d,%d) should fail", c[0], c[1])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	d := New(2, 2)
	fill(d)
	c := d.Clone()
	c.Set(0, 0, -5)
	c.Names[0] = "X"
	if d.At(0, 0) == -5 || d.Names[0] == "X" {
		t.Fatal("clone aliases original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := New(2, 2)
	d.Set(1, 1, math.NaN())
	if d.Validate() == nil {
		t.Fatal("NaN not caught")
	}
	d = New(2, 2)
	d.Names = d.Names[:1]
	if d.Validate() == nil {
		t.Fatal("name count mismatch not caught")
	}
	d = New(2, 2)
	d.Values = d.Values[:3]
	if d.Validate() == nil {
		t.Fatal("value count mismatch not caught")
	}
}

func TestStandardize(t *testing.T) {
	d := New(2, 100)
	for j := 0; j < 100; j++ {
		d.Set(0, j, float64(j)*3+17)
		d.Set(1, j, 42) // constant row
	}
	d.Standardize()
	row := d.Row(0)
	var sum, ss float64
	for _, v := range row {
		sum += v
	}
	mean := sum / 100
	for _, v := range row {
		ss += (v - mean) * (v - mean)
	}
	if math.Abs(mean) > 1e-9 || math.Abs(ss/100-1) > 1e-9 {
		t.Fatalf("mean %v var %v", mean, ss/100)
	}
	for _, v := range d.Row(1) {
		if v != 0 {
			t.Fatal("constant row must map to zero")
		}
	}
}

func TestTSVRoundTrip(t *testing.T) {
	d := New(3, 4)
	fill(d)
	d.Names[1] = "YFG1"
	var buf bytes.Buffer
	if err := d.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 3 || got.M != 4 || got.Names[1] != "YFG1" {
		t.Fatalf("round trip shape/names: %+v", got)
	}
	for i := range d.Values {
		if d.Values[i] != got.Values[i] {
			t.Fatalf("value %d: %v != %v", i, d.Values[i], got.Values[i])
		}
	}
}

func TestTSVRoundTripProperty(t *testing.T) {
	check := func(vals []float64, nRaw uint8) bool {
		n := int(nRaw)%3 + 1
		if len(vals) < n {
			return true
		}
		m := len(vals) / n
		d := New(n, m)
		for i := 0; i < n*m; i++ {
			v := vals[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			d.Values[i] = v
		}
		var buf bytes.Buffer
		if err := d.WriteTSV(&buf); err != nil {
			return false
		}
		got, err := ReadTSV(&buf)
		if err != nil {
			return false
		}
		for i := range d.Values {
			// %g is shortest-exact for float64, so equality is exact.
			if got.Values[i] != d.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

// TestReadTSVRetainsOnlyParsedData: a parsed data set holds its values and
// its names, not the text it was parsed from. A name cut out of the scanner's
// line as a substring pins the whole line — at 96×32 some 60 KB of input
// beyond the 24 KB of values, for as long as the data set (a serve cache
// entry, say) lives. Parse, drop the input, collect, and require the retained
// heap to stay within twice the values and names.
func TestReadTSVRetainsOnlyParsedData(t *testing.T) {
	const n, m, sets = 96, 32, 32
	d := New(n, m)
	for i := range d.Values {
		d.Values[i] = math.Sqrt(float64(i + 2)) // ~18 significant digits, like real input
	}
	var text bytes.Buffer
	if err := d.WriteTSV(&text); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	want := int64(8 * n * m)
	for _, name := range d.Names {
		want += int64(unsafe.Sizeof(name)) + int64(len(name))
	}
	kept := make([]*Data, sets)
	before := heap()
	for i := range kept {
		got, err := ReadTSV(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = got
	}
	retained := int64(heap()-before) / sets
	t.Logf("retained %d bytes per data set, values and names %d, input text %d", retained, want, text.Len())
	if retained > 2*want {
		t.Errorf("a parsed %d×%d data set retains %d bytes; its values and names are %d (input text %d)",
			n, m, retained, want, text.Len())
	}
	runtime.KeepAlive(kept)
}

func TestReadTSVNoHeader(t *testing.T) {
	in := "g1\t1.5\t2.5\ng2\t3\t4\n"
	d, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 2 || d.M != 2 || d.At(0, 1) != 2.5 {
		t.Fatalf("%+v", d)
	}
}

func TestReadTSVSkipsBlankLines(t *testing.T) {
	in := "gene\tobs0\n\ng1\t1\n\ng2\t2\n"
	d, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 2 || d.M != 1 {
		t.Fatalf("%dx%d", d.N, d.M)
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"header only":   "gene\tobs0\n",
		"ragged":        "g1\t1\t2\ng2\t3\n",
		"non-numeric":   "g1\t1\ng2\tfoo\n",
		"name only row": "g1\n",
	}
	for name, in := range cases {
		if _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestSaveLoadTSV(t *testing.T) {
	d := New(2, 3)
	fill(d)
	path := filepath.Join(t.TempDir(), "d.tsv")
	if err := d.SaveTSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 2 || got.M != 3 || got.At(1, 2) != 102 {
		t.Fatalf("%+v", got)
	}
}

func TestLoadTSVMissingFile(t *testing.T) {
	if _, err := LoadTSV(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestSelectObservations(t *testing.T) {
	d := New(2, 4)
	fill(d)
	s, err := d.SelectObservations([]int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.M != 2 || s.At(1, 0) != 103 || s.At(1, 1) != 101 {
		t.Fatalf("selection wrong: %+v", s.Values)
	}
	// Deep copy.
	s.Set(0, 0, -9)
	if d.At(0, 3) == -9 {
		t.Fatal("selection aliases original")
	}
}

func TestSelectObservationsErrors(t *testing.T) {
	d := New(2, 3)
	if _, err := d.SelectObservations(nil); err == nil {
		t.Fatal("empty selection accepted")
	}
	if _, err := d.SelectObservations([]int{5}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}

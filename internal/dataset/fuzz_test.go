package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// tsvSeeds is the FuzzReadTSV seed corpus.
var tsvSeeds = []string{
	"gene\tobs0\tobs1\nG0\t1.5\t-2\nG1\t0\t3e-2\n", // well-formed
	"G0\t1\t2\nG1\t3\n",                            // ragged row
	"G0\t\t2\n",                                    // empty cell
	"G0\tNaN\t2\n",                                 // NaN value
	"G0\t+Inf\t-Inf\n",                             // infinities
	"G0\t1e309\t0\n",                               // overflow to Inf
	"G0\t" + strings.Repeat("9", 4096) + "\t1\n",   // huge field
	"\n\n\nG0\t1\t2\n\n",                           // blank lines
	"name only\n",                                  // no values
	"\x00\xff\t\x01\n",                             // binary garbage
	"G0\t1\t2\r\nG1\t3\t4\r\n",                     // CRLF line ends
	"gene\tobs0\nG0\t1\t2\nG1\tx\n",                // ragged row that also holds a bad value
	"gene\n",                                       // header without a value column
	"G0\t1\t2\ngene\tobs0\tobs1\n",                 // a header-like line after line 1
}

// sameData reports how got differs from want: names, shape, or the bits of
// any value.
func sameData(got, want *Data) error {
	if got.N != want.N || got.M != want.M || len(got.Names) != len(want.Names) || len(got.Values) != len(want.Values) {
		return fmt.Errorf("shape %d×%d (%d names, %d values), want %d×%d (%d names, %d values)",
			got.N, got.M, len(got.Names), len(got.Values), want.N, want.M, len(want.Names), len(want.Values))
	}
	for i := range want.Names {
		if got.Names[i] != want.Names[i] {
			return fmt.Errorf("name %d: %q, want %q", i, got.Names[i], want.Names[i])
		}
	}
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			return fmt.Errorf("value %d: %v, want %v", i, got.Values[i], want.Values[i])
		}
	}
	return nil
}

// sameOutcome reports how a (data, error) pair differs from the wanted
// one: the same refusal with the same text, or the same data.
func sameOutcome(got *Data, err error, want *Data, wantErr error) error {
	switch {
	case (err == nil) != (wantErr == nil):
		return fmt.Errorf("error %v, want %v", err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		return fmt.Errorf("error %q, want %q", err, wantErr)
	case err != nil:
		return nil
	}
	return sameData(got, want)
}

// FuzzReadTSV drives the TSV loader with arbitrary byte soup: the loader
// must return an error for malformed input — ragged rows, empty cells,
// non-finite values, binary garbage, oversized fields — and must never
// panic. Whatever it does accept must satisfy every Data invariant,
// including finiteness, so nothing the loader admits can poison the exact
// integer statistics downstream. And it must decide exactly as the reader
// it replaced: the same accept/reject, the same error text, and for
// accepted input the same names and value bits.
func FuzzReadTSV(f *testing.F) {
	for _, s := range tsvSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadTSV(strings.NewReader(input))
		want, wantErr := referenceReadTSV(strings.NewReader(input))
		if diff := sameOutcome(d, err, want, wantErr); diff != nil {
			t.Fatalf("ReadTSV differs from the reference reader: %v\ninput: %q", diff, input)
		}
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("ReadTSV accepted input that fails Validate: %v\ninput: %q", verr, input)
		}
		if d.N == 0 || d.M == 0 {
			t.Fatalf("ReadTSV accepted an empty %d×%d data set\ninput: %q", d.N, d.M, input)
		}
	})
}

// FuzzTSVRoundTrip: for any finite float64 cells, WriteTSV writes the bytes
// the reference writer wrote, and ReadTSV reads back the identical bits.
// The cells are the fuzz input's 8-byte words as bit patterns, with a
// non-finite pattern made finite by clearing its top exponent bit.
func FuzzTSVRoundTrip(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), word(1.5, -2, 0, 3e-2))
	f.Add(uint8(1), word(math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64))
	f.Add(uint8(2), word(1e21, 1e20, 123456789, 0.1, 1.0/3, -1e-7))
	f.Fuzz(func(t *testing.T, rows uint8, raw []byte) {
		n := int(rows)%4 + 1
		m := len(raw) / 8 / n
		if m == 0 {
			return
		}
		d := New(n, m)
		for i := range d.Values {
			bits := binary.LittleEndian.Uint64(raw[8*i:])
			v := math.Float64frombits(bits)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = math.Float64frombits(bits &^ (1 << 62))
			}
			d.Values[i] = v
		}
		var got, want bytes.Buffer
		if err := d.WriteTSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteTSV(d, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteTSV wrote\n%q\nthe reference wrote\n%q", got.Bytes(), want.Bytes())
		}
		back, err := ReadTSV(&got)
		if err != nil {
			t.Fatalf("ReadTSV refused WriteTSV's output: %v\n%q", err, want.Bytes())
		}
		if diff := sameData(back, d); diff != nil {
			t.Fatalf("round trip: %v", diff)
		}
	})
}

package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(0)
	e.Uvarint(math.MaxUint64)
	e.Varint(0)
	e.Varint(-1)
	e.Varint(math.MinInt64)
	e.Varint(math.MaxInt64)
	e.Int(-42)
	e.Byte(0xA5)
	e.Float64(0)
	e.Float64(math.Copysign(0, -1))
	e.Float64(math.Inf(1))
	e.Float64(math.NaN())
	e.Float64(1.0 / 3.0)
	e.String("")
	e.String("gène-α\x00binary")

	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint 0 = %d", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint max = %d", got)
	}
	for _, want := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := d.Varint(); got != want {
			t.Errorf("varint %d = %d", want, got)
		}
	}
	if got := d.Int(); got != -42 {
		t.Errorf("int -42 = %d", got)
	}
	if got := d.Byte(); got != 0xA5 {
		t.Errorf("byte = %x", got)
	}
	for _, want := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1.0 / 3.0} {
		got := d.Float64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("float64 %v bits %x, want %x", want, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if got := d.String(); got != "" {
		t.Errorf("empty string = %q", got)
	}
	if got := d.String(); got != "gène-α\x00binary" {
		t.Errorf("string = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

func TestListRoundTrip(t *testing.T) {
	lists := [][]int{
		nil,
		{0},
		{5},
		{-3, 0, 7},
		{0, 1, 2, 3, 1000, 1001, 1 << 40},
		{7, 3, 9, 1}, // unsorted: SortedInts must stay correct, just less compact
	}
	for _, xs := range lists {
		e := NewEncoder()
		e.SortedInts(xs)
		d := NewDecoder(e.Bytes())
		if got := d.SortedInts(); !equalInts(got, xs) {
			t.Errorf("SortedInts(%v) round-tripped to %v", xs, got)
		}
		if err := d.Err(); err != nil {
			t.Errorf("lists %v: %v", xs, err)
		}
	}
}

// TestDecodeList: EncodeList/DecodeList round-trip, and every malformed
// list decodes to nil with the sticky error set.
func TestDecodeList(t *testing.T) {
	for _, xs := range [][]float64{nil, {0}, {1.5, -2, math.Inf(1)}} {
		e := NewEncoder()
		EncodeList(e, xs, (*Encoder).Float64)
		d := NewDecoder(e.Bytes())
		got := DecodeList(d, 8, (*Decoder).Float64)
		if d.Err() != nil || d.Remaining() != 0 || len(got) != len(xs) {
			t.Fatalf("%v round-tripped to %v (err %v, %d bytes left)", xs, got, d.Err(), d.Remaining())
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Errorf("%v round-tripped to %v", xs, got)
			}
		}
	}

	floats := func(count uint64, xs ...float64) []byte {
		e := NewEncoder()
		e.Uvarint(count)
		for _, x := range xs {
			e.Float64(x)
		}
		return e.Bytes()
	}
	nonNegative := func(d *Decoder) float64 {
		x := d.Float64()
		if x < 0 {
			d.Failf("negative element %v", x)
		}
		return x
	}
	for _, tc := range []struct {
		name     string
		data     []byte
		minBytes int
		elem     func(*Decoder) float64
		want     string
	}{
		{"count exceeds the bytes left", floats(3, 1, 2), 8, (*Decoder).Float64, "count 3 exceeds"},
		{"truncated element", floats(2, 1, 2)[:12], 1, (*Decoder).Float64, "truncated float64"},
		{"element fails mid-list", floats(3, 1, -1, 2), 8, nonNegative, "negative element -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(tc.data)
			if got := DecodeList(d, tc.minBytes, tc.elem); got != nil {
				t.Errorf("decoded %v, want nil", got)
			}
			if err := d.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestSortedIntsCompact pins the size win delta coding exists for: a dense
// sorted index list costs ~1 byte per element.
func TestSortedIntsCompact(t *testing.T) {
	xs := make([]int, 1000)
	for i := range xs {
		xs[i] = 100000 + 3*i
	}
	e := NewEncoder()
	e.SortedInts(xs)
	if n := len(e.Bytes()); n > 1010 {
		t.Fatalf("1000 dense sorted ints encoded to %d bytes, want ≈1 byte each", n)
	}
}

// rawSection writes body verbatim as section id and, when read, stores the
// body it finds in *got.
func rawSection(id uint64, body []byte, got *[]byte) SectionCodec {
	return SectionCodec{
		ID: id,
		Encode: func(e *Encoder) {
			for _, b := range body {
				e.Byte(b)
			}
		},
		Decode: func(d *Decoder) { *got = d.raw(d.Remaining()) },
	}
}

func TestFileRoundTrip(t *testing.T) {
	h := Header{Kind: KindProgress, N: 1234}
	bodies := [][]byte{[]byte("alpha"), nil, bytes.Repeat([]byte{0xFF}, 300)}
	got := make([][]byte, len(bodies))
	table := []SectionCodec{rawSection(1, bodies[0], &got[0]), rawSection(9, bodies[1], &got[1]), rawSection(2, bodies[2], &got[2])}
	data := EncodeFile(h, table)
	if !IsWire(data) {
		t.Fatal("encoded file fails IsWire")
	}
	gh, err := DecodeFile(data, KindProgress, table)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Fatalf("header %+v, want %+v", gh, h)
	}
	for i := range bodies {
		if !bytes.Equal(got[i], bodies[i]) {
			t.Errorf("section %d body %q, want %q", table[i].ID, got[i], bodies[i])
		}
	}
}

func TestDecodeFileRejects(t *testing.T) {
	var body []byte
	good := EncodeFile(Header{Kind: KindEnsembles, N: 3}, []SectionCodec{rawSection(1, []byte{1, 2, 3}, &body)})
	kind257 := append(append(append([]byte{}, good[:5]...), 0x81, 0x02), good[6:]...)
	nHuge := append(binary.AppendUvarint(append([]byte{}, good[:6]...), 1<<63), good[7:]...)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"json", []byte(`{"version":2}`), "bad magic"},
		{"magic only", magic[:], "uvarint"},
		{"truncated header", good[:5], "uvarint"},
		{"truncated section body", good[:len(good)-2], "exceeds"},
		{"trailing garbage", append(append([]byte{}, good...), 0x80), "uvarint"},
		{"oversized section length", append(append([]byte{}, good...), 5, 127), "count 127 exceeds"},
		// 257 is KindEnsembles once truncated to a byte.
		{"kind 257", kind257, "kind 257 out of range"},
		{"n beyond int", nHuge, "overflows int"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeFile(tc.data, KindEnsembles, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestDecodeFileSections: the checks DecodeFile applies to a file's
// sections against the reader's table.
func TestDecodeFileSections(t *testing.T) {
	var payload string
	table := []SectionCodec{{ID: 1, Required: true,
		Encode: func(e *Encoder) { e.String("payload") },
		Decode: func(d *Decoder) { payload = d.String() }}}
	var ignored []byte
	for _, tc := range []struct {
		name string
		kind Kind
		secs []SectionCodec
		want string // "" for a file that decodes
	}{
		{"unknown section skipped", KindModules, append([]SectionCodec{rawSection(7777, []byte("from the future"), &ignored)}, table...), ""},
		{"missing required section", KindModules, []SectionCodec{rawSection(2, []byte{0}, &ignored)}, "modules checkpoint has no section 1"},
		{"trailing bytes in a section", KindModules, []SectionCodec{rawSection(1, []byte{1, 'x', 'y'}, &ignored)}, "section 1 has 1 trailing bytes"},
		{"section decoder fails", KindModules, []SectionCodec{rawSection(1, []byte{9, 'x'}, &ignored)}, "section 1: wire: count 9 exceeds"},
		{"repeated section", KindModules, append(table, table...), "section 1 repeated"},
		{"kind mismatch", KindNetwork, table, "file is a network, expected a modules checkpoint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload = ""
			_, err := DecodeFile(EncodeFile(Header{Kind: tc.kind}, tc.secs), KindModules, table)
			switch {
			case tc.want == "" && (err != nil || payload != "payload"):
				t.Fatalf("got payload %q, err %v", payload, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestVersionNegotiation: a file from an older or a future format version is
// rejected with an error naming both versions, before any section is touched.
func TestVersionNegotiation(t *testing.T) {
	for _, v := range []byte{Version - 1, Version + 1} {
		data := EncodeFile(Header{Kind: KindNetwork}, nil)
		// The version uvarint is the byte right after the magic (Version < 128).
		data[len(magic)] = v
		_, err := DecodeFile(data, KindNetwork, nil)
		want := fmt.Sprintf("format v%d, this build expects v%d", v, Version)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("got %v, want a version-mismatch rejection %q", err, want)
		}
	}
}

// TestUnknownSectionsSkipped: a reader dispatching on known section IDs is
// oblivious to appended sections — the forward-compatibility contract.
func TestUnknownSectionsSkipped(t *testing.T) {
	var known, future []byte
	data := EncodeFile(Header{Kind: KindModules, N: 5}, []SectionCodec{
		rawSection(1, []byte("payload"), &known),
		rawSection(7777, []byte("from the future"), &future),
	})
	if _, err := DecodeFile(data, KindModules, []SectionCodec{rawSection(1, nil, &known)}); err != nil {
		t.Fatal(err)
	}
	if string(known) != "payload" {
		t.Fatalf("known section body %q", known)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x80}) // truncated uvarint
	_ = d.Uvarint()
	if d.Err() == nil {
		t.Fatal("no error from truncated uvarint")
	}
	first := d.Err()
	// Every later read is a zero value and must not disturb the first error.
	if d.Uvarint() != 0 || d.Varint() != 0 || d.Byte() != 0 || d.Float64() != 0 ||
		d.String() != "" || d.SortedInts() != nil || d.Remaining() != 0 {
		t.Error("poisoned decoder returned non-zero values")
	}
	if d.Err() != first {
		t.Error("sticky error was replaced")
	}
}

// TestCountGuard: a length prefix claiming more elements than bytes remain
// fails instead of allocating.
func TestCountGuard(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(1 << 40) // a count with no data behind it
	d := NewDecoder(e.Bytes())
	if xs := d.SortedInts(); xs != nil || d.Err() == nil {
		t.Fatalf("huge count decoded to %v, err %v", xs, d.Err())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

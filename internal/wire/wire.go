// Package wire implements the versioned binary on-disk format shared by
// checkpoint files and serialized networks (DESIGN §12). At production scale
// the JSON artifacts dominate recovery time and cache footprint; this format
// packs the same data an order of magnitude tighter by exploiting its shape:
// sorted index lists (module memberships, observation sets, ensembles)
// delta-code to near-nothing, and the quantized integers the score layer
// already works in (split thresholds, sufficient statistics) fit in one or
// two varint bytes.
//
// A file is a self-describing header — magic, format version, kind and a
// count N — followed by length-prefixed sections. Each file kind's owner
// declares a section table (SectionCodec) that EncodeFile writes and
// DecodeFile reads; DecodeFile is the one place the framing is checked.
// Readers skip unknown section IDs by length, so later format revisions can
// append sections without breaking older readers; the format version gates
// incompatible changes with the same negotiation discipline as the JSON
// checkpoints (reject with an error naming both versions, never guess). This package
// owns the framing and the counted list (EncodeList, DecodeList); the codec
// of each struct stays with the package that owns the struct.
//
// Encoding vocabulary (all integers little-endian base-128 varints):
//
//	uvarint    unsigned varint (encoding/binary Uvarint)
//	varint     zigzag-signed varint (encoding/binary Varint)
//	float64    IEEE-754 bits, 8 bytes little-endian (bit-exact round trip)
//	string     uvarint byte length + raw bytes
//	list       uvarint count + the elements (EncodeList)
//	sortedInts uvarint count + varint first element + varint deltas
//
// Decoding is hostile-input safe: every count is validated against the bytes
// remaining (each element occupies ≥ 1 byte), so a corrupt or adversarial
// length prefix cannot force a huge allocation, and errors are sticky — the
// first failure poisons the Decoder and every later read returns zero values.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the wire-format version this package reads and writes. Files
// carrying any other version are rejected up front; there is no
// cross-version migration.
const Version = 2

// magic identifies a wire-format file. The first byte is outside ASCII so a
// wire file can never be confused with the JSON ('{') or XML ('<') formats
// it replaces — readers auto-detect by prefix via IsWire.
var magic = [4]byte{0xB7, 'P', 'M', 'W'}

// Kind says what a wire file contains; readers reject a file of the wrong
// kind rather than misinterpreting its sections.
type Kind uint8

const (
	// KindEnsembles is the GaneSH task checkpoint (core's ensembles.json).
	KindEnsembles Kind = 1
	// KindModules is the consensus task checkpoint.
	KindModules Kind = 2
	// KindProgress is the per-module progress manifest.
	KindProgress Kind = 3
	// KindNetwork is a serialized result.Network.
	KindNetwork Kind = 4
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindEnsembles:
		return "ensembles checkpoint"
	case KindModules:
		return "modules checkpoint"
	case KindProgress:
		return "progress manifest"
	case KindNetwork:
		return "network"
	}
	return fmt.Sprintf("kind %d", uint8(k))
}

// Header is the self-describing file header: the kind and a count N whose
// meaning the kind's owner defines (a network's variable count; checkpoints
// leave it zero).
type Header struct {
	Kind Kind
	N    int
}

// SectionCodec is one row of a file kind's section table: the section ID
// (scoped per Kind), how its body is written and read, and whether a
// reader requires it. A table has at most 64 rows.
type SectionCodec struct {
	ID       uint64
	Required bool
	Encode   func(*Encoder)
	Decode   func(*Decoder)
}

// IsWire reports whether data starts with the wire magic — the format
// auto-detection hook (a JSON checkpoint starts with '{', an XML network
// with '<').
func IsWire(data []byte) bool {
	return len(data) >= len(magic) && bytes.Equal(data[:len(magic)], magic[:])
}

// EncodeFile assembles a complete wire file: magic, header, then one
// length-prefixed section per table row, in table order.
func EncodeFile(h Header, table []SectionCodec) []byte {
	e := &Encoder{buf: append([]byte(nil), magic[:]...)}
	e.Uvarint(Version)
	e.Uvarint(uint64(h.Kind))
	e.Uvarint(uint64(h.N))
	for _, s := range table {
		e.Uvarint(s.ID)
		// Encode the body in place, then shift it right past its length.
		start := len(e.buf)
		s.Encode(e)
		var length [binary.MaxVarintLen64]byte
		body := len(e.buf) - start
		k := binary.PutUvarint(length[:], uint64(body))
		e.buf = append(e.buf, length[:k]...)
		copy(e.buf[start+k:], e.buf[start:start+body])
		copy(e.buf[start:], length[:k])
	}
	return e.buf
}

// DecodeFile parses a wire file of kind want and returns its header. It is
// the one place a file's framing is checked: magic, version and kind; every
// section whose ID is in table runs its decoder, which must consume the
// body exactly; a known ID may appear once; sections with unknown IDs are
// skipped; a Required section that never appears is an error. The whole
// input must be consumed by well-formed sections — trailing garbage is an
// error, never silently ignored (a truncated rename or a concatenated pair
// of files must fail fast, not resume from partial state).
func DecodeFile(data []byte, want Kind, table []SectionCodec) (Header, error) {
	if !IsWire(data) {
		return Header{}, fmt.Errorf("wire: bad magic (not a wire-format file)")
	}
	d := NewDecoder(data[len(magic):])
	v := d.Uvarint()
	if d.err == nil && v != Version {
		return Header{}, fmt.Errorf("wire: file is format v%d, this build expects v%d", v, Version)
	}
	kind := d.Uvarint()
	if kind > math.MaxUint8 {
		d.Failf("kind %d out of range", kind)
	}
	if d.err == nil && Kind(kind) != want {
		return Header{}, fmt.Errorf("wire: file is a %s, expected a %s", Kind(kind), want)
	}
	n := d.Uvarint()
	if n > math.MaxInt {
		d.Failf("n %d overflows int", n)
	}
	h := Header{Kind: want, N: int(n)}
	if len(table) > 64 {
		panic("wire: a section table has at most 64 rows")
	}
	var seen uint64 // bit i: table[i] was decoded
	for d.err == nil && d.Remaining() > 0 {
		id := d.Uvarint()
		body := d.raw(d.count(1))
		for i, s := range table {
			if s.ID != id || d.err != nil {
				continue
			}
			if seen&(1<<i) != 0 {
				d.Failf("section %d repeated", id)
				break
			}
			seen |= 1 << i
			sd := NewDecoder(body)
			s.Decode(sd)
			if sd.err != nil {
				d.err = fmt.Errorf("section %d: %w", id, sd.err)
			} else if sd.Remaining() != 0 {
				d.Failf("section %d has %d trailing bytes", id, sd.Remaining())
			}
		}
	}
	if err := d.Err(); err != nil {
		return Header{}, err
	}
	for i, s := range table {
		if s.Required && seen&(1<<i) == 0 {
			return Header{}, fmt.Errorf("wire: %s has no section %d", want, s.ID)
		}
	}
	return h, nil
}

// EncodeList appends a counted list: the element count, then each element
// through elem.
func EncodeList[T any](e *Encoder, xs []T, elem func(*Encoder, T)) {
	e.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		elem(e, x)
	}
}

// DecodeList reads a list written by EncodeList, each element through elem.
// minBytes is the fewest bytes one element can occupy: the count is checked
// against the bytes remaining before anything is allocated. An empty list
// decodes to nil, and so does any list once d has failed.
func DecodeList[T any](d *Decoder, minBytes int, elem func(*Decoder) T) []T {
	n := d.count(minBytes)
	if d.err != nil || n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = elem(d)
		if d.err != nil {
			return nil
		}
	}
	return xs
}

// Encoder appends wire-encoded values to a growing buffer. The zero value
// is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

// Varint appends a zigzag-signed varint.
func (e *Encoder) Varint(x int64) { e.buf = binary.AppendVarint(e.buf, x) }

// Int appends an int as a zigzag varint.
func (e *Encoder) Int(x int) { e.Varint(int64(x)) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Float64 appends the IEEE-754 bits of f, 8 bytes little-endian. Fixed
// width keeps the round trip bit-exact for every value including NaN
// payloads, ±Inf, and negative zero.
func (e *Encoder) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String appends a length-prefixed byte string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// SortedInts appends a counted, delta-coded integer list: the first element
// verbatim, then successive differences. On the sorted non-negative index
// lists this format exists for (module memberships, observation sets,
// ensemble clusters) every delta is small and encodes in one byte; the
// zigzag coding keeps arbitrary (even unsorted) input correct, merely less
// compact.
func (e *Encoder) SortedInts(xs []int) {
	e.Uvarint(uint64(len(xs)))
	prev := 0
	for i, x := range xs {
		if i == 0 {
			e.Varint(int64(x))
		} else {
			e.Varint(int64(x) - int64(prev))
		}
		prev = x
	}
}

// Decoder reads wire-encoded values with a sticky error: after the first
// failure every read returns zero values and Err reports the cause.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps data for decoding.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf records a decode failure (the first one wins).
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.data) - d.off
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.Failf("truncated or overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

// Varint reads a zigzag-signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.Failf("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

// Int reads a zigzag varint and narrows it to int.
func (d *Decoder) Int() int {
	x := d.Varint()
	if int64(int(x)) != x {
		d.Failf("varint %d overflows int", x)
		return 0
	}
	return int(x)
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.Failf("unexpected end of input at offset %d", d.off)
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

// Float64 reads 8 little-endian bytes as IEEE-754 float64 bits.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.Failf("truncated float64 at offset %d", d.off)
		return 0
	}
	bits := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(bits)
}

// raw consumes and returns the next n bytes (aliasing the input buffer).
func (d *Decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.Failf("truncated section: need %d bytes at offset %d, have %d", n, d.off, len(d.data)-d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// count reads an element count and validates it against the bytes
// remaining, given that each element occupies at least elemSize bytes — the
// guard that keeps corrupt length prefixes from forcing huge allocations.
func (d *Decoder) count(elemSize int) int {
	if elemSize < 1 {
		elemSize = 1
	}
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/elemSize) {
		d.Failf("count %d exceeds the %d bytes remaining", n, d.Remaining())
		return 0
	}
	return int(n)
}

// String reads a length-prefixed byte string.
func (d *Decoder) String() string {
	return string(d.raw(d.count(1)))
}

// SortedInts reads a delta-coded list written by Encoder.SortedInts.
func (d *Decoder) SortedInts() []int {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, n)
	prev := int64(0)
	for i := range xs {
		delta := d.Varint()
		var v int64
		if i == 0 {
			v = delta
		} else {
			v = prev + delta
		}
		if int64(int(v)) != v {
			d.Failf("delta-coded value %d overflows int", v)
			return nil
		}
		xs[i] = int(v)
		prev = v
	}
	if d.err != nil {
		return nil
	}
	return xs
}

package dataset

// The TSV codec (DESIGN §26): one streaming line reader and one row parser
// behind ReadTSV, and a writer that formats each line
// into one reused buffer. A row costs one allocation — its name — and the
// values are the bits strconv.ParseFloat returns, so a network learned from
// a file does not depend on how the file was read.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

const (
	// maxLine bounds the longest line the reader accepts; a longer one is
	// refused with bufio.ErrTooLong.
	maxLine = 64 << 20
	// lineBuf is the reader's initial buffer. It holds any ordinary line;
	// the scanner doubles it, up to maxLine, only for a wider row.
	lineBuf = 64 << 10
)

// WriteTSV writes the data set as a header line ("gene" plus observation
// labels) followed by one line per variable: name, then m tab-separated
// values, each the shortest decimal that parses back to the same float64.
func (d *Data) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	line := []byte("gene")
	for j := 0; j < d.M; j++ {
		line = append(line, "\tobs"...)
		line = strconv.AppendInt(line, int64(j), 10)
	}
	line = append(line, '\n')
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for i := 0; i < d.N; i++ {
		line = append(line[:0], d.Names[i]...)
		for _, v := range d.Row(i) {
			line = append(line, '\t')
			line = strconv.AppendFloat(line, v, 'g', -1, 64)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses the format written by WriteTSV. Blank lines are skipped,
// and so is line 1 when its second field is not a number (a header). Rows
// must all have the same number of values, and every value must be finite.
func ReadTSV(r io.Reader) (*Data, error) {
	lr := newLines(r)
	t := table{m: -1}
	for lr.next() {
		if err := t.add(lr.text, lr.n); err != nil {
			return nil, err
		}
	}
	if err := lr.err(); err != nil {
		return nil, err
	}
	return t.data()
}

// LoadTSV reads a data set from the named file.
func LoadTSV(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadTSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// SaveTSV writes the data set to the named file.
func (d *Data) SaveTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lines yields the data lines of a TSV stream: blank lines are skipped, and
// physical line 1 is skipped when it is a header.
type lines struct {
	sc *bufio.Scanner
	// n is the physical number of the current line, and text its content
	// without the line ending. text aliases the scanner's buffer and is
	// valid until the next call to next.
	n    int
	text []byte
}

func newLines(r io.Reader) *lines {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, lineBuf), maxLine)
	return &lines{sc: sc}
}

// next advances to the next data line. It returns false at the end of the
// input or on a read error, which err then reports.
func (lr *lines) next() bool {
	for lr.sc.Scan() {
		lr.n++
		lr.text = bytes.TrimRight(lr.sc.Bytes(), "\r\n")
		if len(lr.text) == 0 || lr.n == 1 && isHeader(lr.text) {
			continue
		}
		return true
	}
	return false
}

func (lr *lines) err() error {
	if err := lr.sc.Err(); err != nil {
		return fmt.Errorf("dataset: read: %w", err)
	}
	return nil
}

// isHeader reports whether a first line is a header: it has a second field
// and that field is not a number. A first line without a second field is
// not a header; the row parser refuses it.
func isHeader(line []byte) bool {
	_, rest, ok := bytes.Cut(line, []byte{'\t'})
	if !ok {
		return false
	}
	second, _, _ := bytes.Cut(rest, []byte{'\t'})
	_, err := strconv.ParseFloat(string(second), 64)
	return err != nil
}

// table accumulates parsed rows. Its add method is the one row parser.
type table struct {
	names  []string
	values []float64
	// m is the number of values per row; -1 until the first row fixes it.
	m int
}

// add parses data line n — a name, then tab-separated values — onto the
// table. The value count is checked against m before any value is parsed,
// so a ragged row is refused as ragged even when it also holds a bad value.
func (t *table) add(line []byte, n int) error {
	cells := bytes.Count(line, []byte{'\t'})
	if cells == 0 {
		return fmt.Errorf("dataset: line %d: need a name and at least one value", n)
	}
	if t.m == -1 {
		t.m = cells
		// Start several rows wide (within 512 KB, or the one row if it
		// is wider), so growth is append's 1.25× of a large slice and not
		// a run of small doublings.
		t.values = make([]float64, 0, max(cells, min(64*cells, 1<<16)))
	} else if cells != t.m {
		return fmt.Errorf("dataset: line %d: %d values, want %d", n, cells, t.m)
	}
	tab := bytes.IndexByte(line, '\t')
	name, rest := line[:tab], line[tab+1:]
	for {
		f := rest
		tab = bytes.IndexByte(rest, '\t')
		if tab >= 0 {
			f = rest[:tab]
		}
		// The conversion does not allocate: ParseFloat keeps no reference
		// to its argument.
		v, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			return fmt.Errorf("dataset: line %d: %v", n, err)
		}
		// NaN/Inf parse fine but poison every downstream score; reject
		// them here, where the line number is still known.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: line %d: non-finite value %q", n, f)
		}
		t.values = append(t.values, v)
		if tab < 0 {
			break
		}
		rest = rest[tab+1:]
	}
	// A copy, not a view of the line: the data set keeps only its names.
	t.names = append(t.names, string(name))
	return nil
}

// data returns the parsed data set, or an error if no row was parsed.
func (t *table) data() (*Data, error) {
	if len(t.names) == 0 {
		return nil, errors.New("dataset: no data rows")
	}
	return &Data{Names: t.names, Values: t.values, N: len(t.names), M: t.m}, nil
}

// Parallel input, mirroring §5.3 of the paper: "reading the given data set
// in parallel ... by block distributing the variables in the data set to
// the MPI processes ... Then, every process reads the observations for the
// variables assigned to it. Finally, the observations for all the variables
// are communicated to all the processes so that each process has the
// complete data set."
//
// Here every rank scans the file's lines (I/O is cheap), but only parses
// the numeric values of its own variable block (parsing dominates), then
// the parsed rows are all-gathered in variable order.

package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"

	"parsimone/internal/comm"
)

// LoadTSVParallel reads the named TSV file cooperatively on c's ranks and
// returns the complete data set on every rank. It accepts and refuses
// exactly what LoadTSV does, with the same error: the lines, the header rule
// and the row parser are ReadTSV's, and when several ranks' blocks hold a
// bad row, the lowest rank's — the first bad line of the file — is the
// error every rank returns.
func LoadTSVParallel(c *comm.Comm, path string) (*Data, error) {
	text, rows, readErr := readLines(path)
	lo, hi := comm.BlockRange(len(rows), c.Size(), c.Rank())
	t := table{m: -1}
	if len(rows) > 0 {
		// The first row fixes the value count, as in ReadTSV; the rank
		// that holds it refuses it if it has no value.
		t.m = bytes.Count(rows[0].of(text), []byte{'\t'})
		t.names = make([]string, 0, hi-lo)
		t.values = make([]float64, 0, (hi-lo)*t.m)
	}
	rowErr := ""
	for _, r := range rows[lo:hi] {
		if err := t.add(r.of(text), r.n); err != nil {
			rowErr = fmt.Sprintf("%s: %v", path, err)
			break
		}
	}
	// Agree on the row count (every rank scanned the same file, and the
	// block partition relies on it) and on the first bad row.
	type outcome struct {
		Rows int
		Err  string
	}
	for _, o := range comm.AllGather(c, outcome{len(rows), rowErr}) {
		if o.Rows != len(rows) {
			return nil, fmt.Errorf("dataset: %s: ranks disagree on row count (%d vs %d)", path, o.Rows, len(rows))
		}
		if o.Err != "" {
			return nil, errors.New(o.Err)
		}
	}
	if readErr != nil {
		return nil, readErr
	}
	// The gathered slices are shared by every rank; each keeps its own copy.
	t.names = slices.Clone(comm.AllGatherv(c, t.names))
	t.values = slices.Clone(comm.AllGatherv(c, t.values))
	d, err := t.data()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// span locates data line n of a file in the text readLines returns.
type span struct{ lo, hi, n int }

func (s span) of(text []byte) []byte { return text[s.lo:s.hi] }

// readLines scans the file with ReadTSV's line reader and returns the data
// lines, concatenated, with where each lies, and LoadTSV's error for a file
// that does not open or read. On a read error it returns the lines before
// it too: a bad row among them is reported first, as ReadTSV reports it.
func readLines(path string) ([]byte, []span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	lr := newLines(f)
	text := []byte{}
	var rows []span
	for lr.next() {
		rows = append(rows, span{len(text), len(text) + len(lr.text), lr.n})
		text = append(text, lr.text...)
	}
	if err := lr.err(); err != nil {
		return text, rows, fmt.Errorf("%s: %w", path, err)
	}
	return text, rows, nil
}

package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// referenceWriteTSV is the fmt-based writer the codec replaced, kept
// verbatim as the oracle WriteTSV must match byte for byte.
func referenceWriteTSV(d *Data, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "gene")
	for j := 0; j < d.M; j++ {
		fmt.Fprintf(bw, "\tobs%d", j)
	}
	fmt.Fprintln(bw)
	for i := 0; i < d.N; i++ {
		fmt.Fprint(bw, d.Names[i])
		for _, v := range d.Row(i) {
			fmt.Fprintf(bw, "\t%g", v)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// referenceReadTSV is the strings.Split-based reader the codec replaced,
// kept verbatim as the oracle ReadTSV must match: the same accept/reject
// decision, the same error text, the same names and value bits.
func referenceReadTSV(r io.Reader) (*Data, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var names []string
	var values []float64
	m := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if text == "" {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset: line %d: need a name and at least one value", line)
		}
		if line == 1 {
			if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
				continue // header
			}
		}
		if m == -1 {
			m = len(fields) - 1
			// Start several rows wide (within 512 KB, or the one row if
			// it is wider), so growth is append's 1.25× of a large slice
			// and not a run of small doublings.
			values = make([]float64, 0, max(m, min(64*m, 1<<16)))
		} else if len(fields)-1 != m {
			return nil, fmt.Errorf("dataset: line %d: %d values, want %d", line, len(fields)-1, m)
		}
		// A substring would pin its whole line for the life of the data
		// set — every byte of the input, several times the parsed values.
		names = append(names, strings.Clone(fields[0]))
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: %v", line, err)
			}
			// NaN/Inf parse fine but poison every downstream score;
			// reject them here, where the line number is still known.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: line %d: non-finite value %q", line, f)
			}
			values = append(values, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("dataset: no data rows")
	}
	return &Data{Names: names, Values: values, N: len(names), M: m}, nil
}

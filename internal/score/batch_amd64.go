package score

// logmlKernel is LogMLBatch on the AVX2 kernel: it stores k.LogML(stats[i])
// in dst[i] for the in-table blocks and 0 for the others, and returns how
// many blocks have a count outside the table (N < 0 or N ≥ len(tab)). The
// last len(stats) mod 4 blocks run as one group padded with empty blocks.
func logmlKernel(k *Kernel, dst []float64, stats []Stats) (fallbacks int) {
	n := len(stats) &^ 3
	if n > 0 {
		fallbacks = logmlAVX2(&k.lanes, &logConsts, &k.tab[0], &dst[0], &stats[0], n)
	}
	if n < len(stats) {
		var s [4]Stats
		var d [4]float64
		copy(s[:], stats[n:])
		fallbacks += logmlAVX2(&k.lanes, &logConsts, &k.tab[0], &d[0], &s[0], 4)
		copy(dst[n:], d[:])
	}
	return fallbacks
}

// logmlAVX2 scores the n > 0 blocks at stats, n a multiple of four, into
// dst.
//
//go:noescape
func logmlAVX2(lanes *kernelLanes, lt *logTable, tab *kernelEntry, dst *float64, stats *Stats, n int) (fallbacks int)

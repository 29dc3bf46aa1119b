package main

import "time"

// Host speed. The reference hosts are small shared VMs that run the same
// code at speeds tens of percent apart from one second to the next and from
// one hour to the next, because of what a neighbour does to the core. Raw
// seconds of a whole 24 s run spread by up to 28 % (quartile distance over
// median) across ten runs, more than any bound a gate could use. So the two
// gated timings, setup_s and learn_s, are measured in segments of about half
// a second between two runs of a fixed reference kernel, and a segment's
// seconds are multiplied by
//
//	refNominalNs / (the kernel's ns per iteration, mean of the two runs)
//
// A gated second is a wall second on a host that runs the kernel at
// refNominalNs per iteration. Over 24 runs of one seed within eight minutes,
// 16 learns read 0.414 s with 11 % spread raw and 2.9 % spread this way; the
// same learns on two ranks 0.288 s with 13 % and 5.4 %. Everything else the
// benchmark reports is raw: learn_wall_s is learn_s as measured, and
// host.ref_ns the kernel's own readings. The kernel calls nothing in the
// repository, so no change to the engine moves it.

const (
	// refNominalNs is the kernel's cost per iteration on the host the sizes
	// were chosen on (a 2-core 2.1 GHz Xeon VM) when it is quiet. It only
	// fixes the unit.
	refNominalNs = 7.0
	// refIters makes one reading about 15 ms: long enough to average the
	// host's millisecond-scale jitter, short next to a segment.
	refIters      = 2_000_000
	refItersQuick = 50_000
	// segmentLength is how much timed work runs between two readings.
	segmentLength = 500 * time.Millisecond
	// refFresh is how long a reading stays usable as the opening reading of
	// the next segment.
	refFresh = 50 * time.Millisecond
)

var (
	refTable [1 << 15]uint64 // 256 KiB: L2-resident, like the scorer's working set
	refSink  uint64
)

// refKernel is throughput-bound like the engine's hot loops: four
// independent multiply-and-reduce generators (the shape of the bootstrap's
// PRNG draws), masked table gathers and two multiply-add chains keep the
// core's issue ports full, so it slows down when the engine does.
func refKernel(iters int) time.Duration {
	const m, mask = 2147483543, 1<<15 - 1
	x0, x1, x2, x3 := uint64(1), uint64(2), uint64(3), uint64(4)
	var a0, a1, a2, a3 uint64
	f0, f1 := 1.0, 1.0
	start := now()
	for i := 0; i < iters; i++ {
		x0 = (x0*1403580 + 12345) % m
		x1 = (x1*810728 + 54321) % m
		x2 = (x2*527612 + 999) % m
		x3 = (x3*1370589 + 7) % m
		a0 += refTable[x0&mask]
		a1 += refTable[x1&mask] & uint64(int64(x0-x1)>>63)
		a2 += refTable[x2&mask]
		a3 += refTable[x3&mask] & uint64(int64(x2-x3)>>63)
		f0 = f0*0.999999 + float64(x0&15)
		f1 = f1*0.999999 + float64(x2&15)
	}
	d := since(start)
	refSink += a0 + a1 + a2 + a3 + uint64(f0+f1)
	return d
}

// host takes the reference readings of one run.
type host struct {
	iters    int
	last     float64 // ns per iteration of the latest reading
	lastAt   time.Time
	readings []float64
}

func (h *host) read() float64 {
	h.last = float64(refKernel(h.iters).Nanoseconds()) / float64(h.iters)
	h.lastAt = now()
	h.readings = append(h.readings, h.last)
	return h.last
}

// segment runs fn between two readings and returns the factor that takes
// wall seconds measured inside it to the nominal host. The opening reading
// is the previous segment's closing one while that is fresh.
func (h *host) segment(fn func()) float64 {
	before := h.last
	if !(before > 0) || since(h.lastAt) > refFresh {
		before = h.read()
	}
	fn()
	return refNominalNs / ((before + h.read()) / 2)
}

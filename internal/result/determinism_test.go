package result

import (
	"bytes"
	"math"
	"testing"
)

// Regression tests for the map-iteration-order sites parsivet's maporder
// analyzer flagged here: values computed from map-backed accumulators must
// be bit-identical across repeated evaluations. Go randomizes the starting
// point of every map range, so a single process exercises many orders —
// before AdjustedRandIndex switched to exact integer accumulation, these
// loops disagreed in the last ULP between calls.

// lcg is a tiny deterministic generator so the test itself cannot depend on
// host PRNG state.
type lcg uint64

func (g *lcg) next(n int) int {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int(uint64(*g)>>33) % n
}

func TestAdjustedRandIndexBitStable(t *testing.T) {
	g := lcg(7)
	a := make([]int, 600)
	b := make([]int, 600)
	for i := range a {
		a[i] = g.next(23)
		b[i] = g.next(19)
		if g.next(10) == 0 {
			b[i] = -1 // exercise the exclusion path too
		}
	}
	ref := AdjustedRandIndex(a, b)
	for run := 0; run < 200; run++ {
		if got := AdjustedRandIndex(a, b); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("run %d: ARI %x differs from first evaluation %x",
				run, math.Float64bits(got), math.Float64bits(ref))
		}
	}
}

func TestSerializedNetworkStable(t *testing.T) {
	// A network whose module graph is built through a map keyed by edge:
	// many cross-module parents make any iteration-order leak visible.
	g := lcg(11)
	n := &Network{N: 120, M: 40}
	for id := 0; id < 12; id++ {
		mod := Module{ID: id}
		for v := id * 10; v < (id+1)*10; v++ {
			mod.Variables = append(mod.Variables, v)
		}
		for p := 0; p < 9; p++ {
			mod.Parents = append(mod.Parents, Parent{
				Index: g.next(120),
				Score: 1 / float64(1+g.next(97)),
				Count: 1 + g.next(5),
			})
		}
		n.Modules = append(n.Modules, mod)
	}

	render := func() []byte {
		var buf bytes.Buffer
		edges := n.ModuleGraph()
		if err := n.WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		if err := n.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		for _, e := range EnforceAcyclic(edges, len(n.Modules)) {
			buf.WriteString("\n")
			buf.WriteString(string(rune('0' + e.From%10)))
		}
		return buf.Bytes()
	}

	ref := render()
	for run := 0; run < 50; run++ {
		if got := render(); !bytes.Equal(got, ref) {
			t.Fatalf("run %d: serialized network differs from first rendering", run)
		}
	}
}

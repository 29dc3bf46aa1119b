// Binary (wire-format) codec for assigned splits — the second half of the
// per-module progress manifest (DESIGN §12). Index fields pack as zigzag
// varints; the split threshold is already a quantized integer (the same
// grid score.QuantizeData works in) and packs the same way; the bootstrap
// posterior is the one genuinely real-valued field and is stored as its
// exact IEEE-754 bits so resumed units are bit-identical.

package splits

import "parsimone/internal/wire"

// EncodeAssigned appends a counted list of assigned splits to e.
func EncodeAssigned(e *wire.Encoder, as []Assigned) {
	wire.EncodeList(e, as, func(e *wire.Encoder, a Assigned) {
		e.Int(a.Module)
		e.Int(a.Tree)
		e.Int(a.Node)
		e.Int(a.Parent)
		e.Varint(a.Value)
		e.Float64(a.Posterior)
		e.Int(a.NodeObs)
	})
}

// DecodeAssigned reads a list written by EncodeAssigned. Errors are
// reported through d's sticky error; the result is nil once d has failed.
func DecodeAssigned(d *wire.Decoder) []Assigned {
	// Each entry is at least six 1-byte varints plus an 8-byte float.
	return wire.DecodeList(d, 14, func(d *wire.Decoder) Assigned {
		return Assigned{
			Module:    d.Int(),
			Tree:      d.Int(),
			Node:      d.Int(),
			Parent:    d.Int(),
			Value:     d.Varint(),
			Posterior: d.Float64(),
			NodeObs:   d.Int(),
		}
	})
}

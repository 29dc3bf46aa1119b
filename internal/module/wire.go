// Binary (wire-format) codec for learned module units — the payload of the
// per-module progress manifest (checkpoint v3, DESIGN §12). A Unit is
// exactly what mid-task resume replays, so the codec must round-trip every
// field bit-identically: the tree and split codecs it composes encode
// integer statistics exactly and posteriors as raw IEEE-754 bits.

package module

import (
	"parsimone/internal/splits"
	"parsimone/internal/tree"
	"parsimone/internal/wire"
)

// EncodeWire appends the unit to e.
func (u *Unit) EncodeWire(e *wire.Encoder) {
	e.Int(u.Module)
	e.SortedInts(u.Vars)
	wire.EncodeList(e, u.Trees, func(e *wire.Encoder, t *tree.Tree) { t.EncodeWire(e) })
	splits.EncodeAssigned(e, u.Weighted)
	splits.EncodeAssigned(e, u.Uniform)
}

// DecodeUnitWire reads a unit written by EncodeWire. Errors are reported
// through d's sticky error; the result is nil once d has failed.
func DecodeUnitWire(d *wire.Decoder) *Unit {
	u := &Unit{
		Module: d.Int(),
		Vars:   d.SortedInts(),
		// A tree costs at least its empty Vars list and one node tag.
		Trees:    wire.DecodeList(d, 2, tree.DecodeWire),
		Weighted: splits.DecodeAssigned(d),
		Uniform:  splits.DecodeAssigned(d),
	}
	if d.Err() != nil {
		return nil
	}
	return u
}

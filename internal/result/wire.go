// Binary serialization of the learned network (DESIGN §12). The wire file
// carries the self-describing header (KindNetwork, N) and one payload
// section. Names appear once: module variable names and parent names that
// are derivable from the network-level Names table are encoded as a one-byte
// "derived" marker instead of repeated strings, which is the common case for
// networks learned from a named data set. Scores are fixed 8-byte IEEE-754
// so a decoded network is bit-identical to the encoded one (§5.2.1).

package result

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"parsimone/internal/wire"
)

// secNetwork is the single payload section ID of a KindNetwork file.
const secNetwork = 1

// Name-reference modes: how a name field was encoded.
const (
	nameAbsent   = 0 // no name stored
	nameDerived  = 1 // equal to Names[index]; not repeated on the wire
	nameExplicit = 2 // literal string follows
)

// WriteBinary serializes the network in the versioned binary wire format.
func (n *Network) WriteBinary(w io.Writer) error {
	h := wire.Header{Kind: wire.KindNetwork, N: n.N}
	_, err := w.Write(wire.EncodeFile(h, n.sections()))
	return err
}

// ReadBinary parses and validates a network written by WriteBinary.
func ReadBinary(r io.Reader) (*Network, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	n := &Network{}
	h, err := wire.DecodeFile(data, wire.KindNetwork, n.sections())
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	n.N = h.N
	if err := checkLoaded(n); err != nil {
		return nil, err
	}
	return n, nil
}

// sections is the network file's section table: one required payload.
func (n *Network) sections() []wire.SectionCodec {
	return []wire.SectionCodec{{ID: secNetwork, Required: true, Encode: n.encodePayload, Decode: n.decodePayload}}
}

func (n *Network) encodePayload(e *wire.Encoder) {
	e.Int(n.M)
	wire.EncodeList(e, n.Names, (*wire.Encoder).String)
	wire.EncodeList(e, n.Modules, n.encodeModule)
}

func (n *Network) decodePayload(d *wire.Decoder) {
	n.M = d.Int()
	n.Names = wire.DecodeList(d, 1, (*wire.Decoder).String)
	n.Modules = wire.DecodeList(d, 1, n.decodeModule)
}

func (n *Network) encodeModule(e *wire.Encoder, mod Module) {
	e.Int(mod.ID)
	e.SortedInts(mod.Variables)
	// Variable names: usually just Names indexed by Variables — the whole
	// list is then one derived marker.
	switch {
	case len(mod.VariableNames) == 0:
		e.Byte(nameAbsent)
	case n.namesDerived(mod.VariableNames, mod.Variables):
		e.Byte(nameDerived)
	default:
		e.Byte(nameExplicit)
		wire.EncodeList(e, mod.VariableNames, (*wire.Encoder).String)
	}
	wire.EncodeList(e, mod.Parents, n.encodeParent)
	wire.EncodeList(e, mod.ParentsUniform, n.encodeParent)
}

// namesDerived reports whether names is exactly Names indexed by idx, and
// therefore need not be stored.
func (n *Network) namesDerived(names []string, idx []int) bool {
	if len(names) != len(idx) {
		return false
	}
	for i, v := range idx {
		if v < 0 || v >= len(n.Names) || names[i] != n.Names[v] {
			return false
		}
	}
	return true
}

func (n *Network) decodeModule(d *wire.Decoder) Module {
	mod := Module{ID: d.Int(), Variables: d.SortedInts()}
	switch n.decodeNameRef(d, mod.Variables...) {
	case nameDerived:
		mod.VariableNames = make([]string, len(mod.Variables))
		for i, v := range mod.Variables {
			mod.VariableNames[i] = n.Names[v]
		}
	case nameExplicit:
		mod.VariableNames = wire.DecodeList(d, 1, (*wire.Decoder).String)
	}
	// A parent is at least its index, mode, 8-byte score and count.
	mod.Parents = wire.DecodeList(d, 11, n.decodeParent)
	mod.ParentsUniform = wire.DecodeList(d, 11, n.decodeParent)
	return mod
}

func (n *Network) encodeParent(e *wire.Encoder, p Parent) {
	e.Int(p.Index)
	switch {
	case p.Name == "":
		e.Byte(nameAbsent)
	case p.Index >= 0 && p.Index < len(n.Names) && p.Name == n.Names[p.Index]:
		e.Byte(nameDerived)
	default:
		e.Byte(nameExplicit)
		e.String(p.Name)
	}
	e.Float64(p.Score)
	e.Int(p.Count)
}

func (n *Network) decodeParent(d *wire.Decoder) Parent {
	p := Parent{Index: d.Int()}
	switch n.decodeNameRef(d, p.Index) {
	case nameDerived:
		p.Name = n.Names[p.Index]
	case nameExplicit:
		p.Name = d.String()
	}
	p.Score = d.Float64()
	p.Count = d.Int()
	return p
}

// decodeNameRef reads and returns the name mode byte of the variables idx:
// a module's variables, or one parent. A derived reference whose indices
// fall outside Names, or an unknown mode, fails d.
func (n *Network) decodeNameRef(d *wire.Decoder, idx ...int) byte {
	switch mode := d.Byte(); mode {
	case nameAbsent, nameExplicit:
		return mode
	case nameDerived:
		for _, v := range idx {
			if v < 0 || v >= len(n.Names) {
				d.Failf("derived name index %d outside the %d-entry names table", v, len(n.Names))
				return nameAbsent
			}
		}
		return mode
	default:
		d.Failf("unknown name mode %d", mode)
		return nameAbsent
	}
}

// ReadJSON parses and validates a network written by WriteJSON. The decode
// is strict: unknown fields and trailing data are errors, as are NaN or
// infinite parent scores and structurally invalid networks — a reloaded
// result file either round-trips exactly or fails loudly.
func ReadJSON(r io.Reader) (*Network, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var n Network
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("result: trailing data after the JSON document")
	}
	if err := checkLoaded(&n); err != nil {
		return nil, err
	}
	return &n, nil
}

// checkLoaded validates a deserialized network beyond what Validate covers
// for freshly learned ones: shape fields non-negative, uniform-baseline
// parent indices in range, names tables sized consistently, and every score
// finite (NaN and ±Inf serialize in some formats but can never come from
// the scorer, so they mark a corrupt or foreign file).
func checkLoaded(n *Network) error {
	if n.N < 0 || n.M < 0 {
		return fmt.Errorf("result: negative data shape %d×%d", n.N, n.M)
	}
	if len(n.Names) != 0 && len(n.Names) != n.N {
		return fmt.Errorf("result: %d names for %d variables", len(n.Names), n.N)
	}
	if err := n.Validate(); err != nil {
		return err
	}
	for _, mod := range n.Modules {
		if len(mod.VariableNames) != 0 && len(mod.VariableNames) != len(mod.Variables) {
			return fmt.Errorf("result: module %d has %d variable names for %d variables",
				mod.ID, len(mod.VariableNames), len(mod.Variables))
		}
		for _, ps := range [][]Parent{mod.Parents, mod.ParentsUniform} {
			for _, p := range ps {
				if p.Index < 0 || p.Index >= n.N {
					return fmt.Errorf("result: module %d parent %d out of range", mod.ID, p.Index)
				}
				if math.IsNaN(p.Score) || math.IsInf(p.Score, 0) {
					return fmt.Errorf("result: module %d parent %d has non-finite score %v",
						mod.ID, p.Index, p.Score)
				}
			}
		}
	}
	return nil
}

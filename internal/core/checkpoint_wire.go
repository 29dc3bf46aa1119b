// The binary wire-format codecs for the three checkpoint files, the one
// checkpoint encoding (DESIGN §12). Every file is the wire header — magic,
// format version, kind — followed by two required sections: the payload and
// the run key the loaders check, as its raw 32-byte sha256 digest.

package core

import (
	"fmt"

	"parsimone/internal/module"
	"parsimone/internal/wire"
)

// Section IDs, the same for every file kind.
const (
	secPayload = 1
	secKey     = 2
)

// checkpointSections is v's section table: the payload and the run key.
func checkpointSections(v wireCheckpoint) []wire.SectionCodec {
	st := v.stamp()
	return []wire.SectionCodec{
		{ID: secPayload, Required: true, Encode: v.encodePayload, Decode: v.decodePayload},
		{ID: secKey, Required: true, Encode: st.encodeKey, Decode: st.decodeKey},
	}
}

func (st *ckptStamp) encodeKey(e *wire.Encoder) {
	for _, b := range st.Key {
		e.Byte(b)
	}
}

func (st *ckptStamp) decodeKey(d *wire.Decoder) {
	for i := range st.Key {
		st.Key[i] = d.Byte()
	}
}

// encodeCheckpoint assembles v's wire file.
func encodeCheckpoint(v wireCheckpoint) []byte {
	return wire.EncodeFile(wire.Header{Kind: v.wireKind()}, checkpointSections(v))
}

// decodeCheckpoint parses the file data, found under name, into v. A file
// that is not a wire file — every JSON checkpoint an earlier build wrote —
// and a wire file of another version are both refused with the delete hint;
// there is no migration.
func decodeCheckpoint(name string, data []byte, v wireCheckpoint) error {
	if !wire.IsWire(data) {
		return fmt.Errorf("core: checkpoint %s is not a binary checkpoint; JSON checkpoints of earlier builds are no longer read — delete the checkpoint directory to re-learn", name)
	}
	if _, err := wire.DecodeFile(data, v.wireKind(), checkpointSections(v)); err != nil {
		return fmt.Errorf("core: checkpoint %s cannot be read (%w) — delete the checkpoint directory to re-learn", name, err)
	}
	return nil
}

// --- ensembles.json: G runs × clusters × delta-coded member lists ---

func (ck *ensemblesCheckpoint) wireKind() wire.Kind { return wire.KindEnsembles }

func (ck *ensemblesCheckpoint) encodePayload(e *wire.Encoder) {
	wire.EncodeList(e, ck.Ensembles, func(e *wire.Encoder, run [][]int) {
		wire.EncodeList(e, run, (*wire.Encoder).SortedInts)
	})
}

func (ck *ensemblesCheckpoint) decodePayload(d *wire.Decoder) {
	ck.Ensembles = wire.DecodeList(d, 1, func(d *wire.Decoder) [][]int {
		return wire.DecodeList(d, 1, (*wire.Decoder).SortedInts)
	})
}

// --- modules.json: delta-coded consensus module member lists ---

func (ck *modulesCheckpoint) wireKind() wire.Kind { return wire.KindModules }

func (ck *modulesCheckpoint) encodePayload(e *wire.Encoder) {
	wire.EncodeList(e, ck.ModuleVars, (*wire.Encoder).SortedInts)
}

func (ck *modulesCheckpoint) decodePayload(d *wire.Decoder) {
	ck.ModuleVars = wire.DecodeList(d, 1, (*wire.Decoder).SortedInts)
}

// --- progress.json: completed module units ---

func (ck *progressCheckpoint) wireKind() wire.Kind { return wire.KindProgress }

func (ck *progressCheckpoint) encodePayload(e *wire.Encoder) {
	wire.EncodeList(e, ck.Units, func(e *wire.Encoder, u *module.Unit) { u.EncodeWire(e) })
}

func (ck *progressCheckpoint) decodePayload(d *wire.Decoder) {
	ck.Units = wire.DecodeList(d, 1, module.DecodeUnitWire)
}

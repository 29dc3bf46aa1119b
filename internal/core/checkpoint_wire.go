// Checkpoint v3: the binary wire-format codecs for the three checkpoint
// files (DESIGN §12). Every file carries the self-describing wire header —
// magic, format version, kind, and the (seed, GaneshRuns, N) configuration
// triple the loaders validate — followed by its payload section and a
// one-varint section stamping the PRNG stream layout (DESIGN §18). Readers
// dispatch on section IDs and skip unknown ones, which is how the layout
// stamp was added without a version bump: a file that lacks it predates it.

package core

import (
	"fmt"
	"math"

	"parsimone/internal/module"
	"parsimone/internal/wire"
)

// Section IDs, the same for every file kind.
const (
	secPayload = 1
	secLayout  = 2
)

// checkpointSections is v's section table: the required payload and the
// layout stamp.
func checkpointSections(v wireCheckpoint) []wire.SectionCodec {
	st := v.stamp()
	return []wire.SectionCodec{
		{ID: secPayload, Required: true, Encode: v.encodePayload, Decode: v.decodePayload},
		{ID: secLayout,
			Encode: func(e *wire.Encoder) { e.Uvarint(uint64(st.StreamLayout)) },
			Decode: func(d *wire.Decoder) {
				l := d.Uvarint()
				if l > math.MaxInt32 {
					d.Failf("stream layout %d out of range", l)
				}
				st.StreamLayout = int(l)
			}},
	}
}

// encodeCheckpoint assembles v's wire file.
func encodeCheckpoint(v wireCheckpoint) []byte {
	st := v.stamp()
	h := wire.Header{Kind: v.wireKind(), Seed: st.Seed, GaneshRuns: st.GaneshRuns, N: st.N}
	return wire.EncodeFile(h, checkpointSections(v))
}

// decodeCheckpoint parses the wire file data, found under name, into v. A
// file without the layout section was written before the stamp existed: it
// decodes as layout 0, which check refuses.
func decodeCheckpoint(name string, data []byte, v wireCheckpoint) error {
	st := v.stamp()
	*st = ckptStamp{}
	h, err := wire.DecodeFile(data, v.wireKind(), checkpointSections(v))
	if err != nil {
		return fmt.Errorf("core: corrupt checkpoint %s: %w", name, err)
	}
	st.Version, st.Seed, st.GaneshRuns, st.N = checkpointVersionBinary, h.Seed, h.GaneshRuns, h.N
	return nil
}

// --- ensembles.json (v3): G runs × clusters × delta-coded member lists ---

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

// --- modules.json (v3): delta-coded consensus module member lists ---

func (ck *modulesCheckpoint) wireKind() wire.Kind { return wire.KindModules }

func (ck *modulesCheckpoint) encodePayload(e *wire.Encoder) {
	wire.EncodeList(e, ck.ModuleVars, (*wire.Encoder).SortedInts)
}

func (ck *modulesCheckpoint) decodePayload(d *wire.Decoder) {
	ck.ModuleVars = wire.DecodeList(d, 1, (*wire.Decoder).SortedInts)
}

// --- progress.json (v3): completed module units ---

func (ck *progressCheckpoint) wireKind() wire.Kind { return wire.KindProgress }

func (ck *progressCheckpoint) encodePayload(e *wire.Encoder) {
	wire.EncodeList(e, ck.Units, func(e *wire.Encoder, u *module.Unit) { u.EncodeWire(e) })
}

func (ck *progressCheckpoint) decodePayload(d *wire.Decoder) {
	ck.Units = wire.DecodeList(d, 1, module.DecodeUnitWire)
}

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

// encodeCheckpoint assembles v's wire file.
func encodeCheckpoint(v wireCheckpoint) []byte {
	st := v.stamp()
	payload, layout := wire.NewEncoder(), wire.NewEncoder()
	v.encodePayload(payload)
	layout.Uvarint(uint64(st.StreamLayout))
	return wire.EncodeFile(
		wire.Header{Kind: v.wireKind(), Seed: st.Seed, GaneshRuns: st.GaneshRuns, N: st.N},
		[]wire.Section{{ID: secPayload, Body: payload.Bytes()}, {ID: secLayout, Body: layout.Bytes()}})
}

// decodeCheckpoint parses the wire file data, found under name, into v.
func decodeCheckpoint(name string, data []byte, v wireCheckpoint) error {
	h, secs, err := wire.DecodeFile(data)
	if err != nil {
		return fmt.Errorf("core: corrupt checkpoint %s: %w", name, err)
	}
	if h.Kind != v.wireKind() {
		return fmt.Errorf("core: checkpoint %s is a %s, expected a %s", name, h.Kind, v.wireKind())
	}
	st := v.stamp()
	*st = ckptStamp{Version: checkpointVersionBinary, Seed: h.Seed, GaneshRuns: h.GaneshRuns, N: h.N}
	payload, ok := wire.FindSection(secs, secPayload)
	if !ok {
		return fmt.Errorf("core: corrupt checkpoint %s: %s has no payload section", name, h.Kind)
	}
	if err := decodeSection(name, "payload", payload, v.decodePayload); err != nil {
		return err
	}
	layout, ok := wire.FindSection(secs, secLayout)
	if !ok {
		return nil // written before the stamp existed: layout 0, refused by check
	}
	return decodeSection(name, "layout stamp", layout, func(d *wire.Decoder) {
		l := d.Uvarint()
		if l > math.MaxInt32 {
			d.Failf("stream layout %d out of range", l)
		}
		st.StreamLayout = int(l)
	})
}

// decodeSection runs decode over one section body, which it must consume
// exactly.
func decodeSection(name, what string, body []byte, decode func(*wire.Decoder)) error {
	d := wire.NewDecoder(body)
	decode(d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: corrupt checkpoint %s: %s: %w", name, what, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("core: corrupt checkpoint %s: %s has %d trailing bytes", name, what, d.Remaining())
	}
	return nil
}

// --- ensembles.json (v3): G runs × clusters × delta-coded member lists ---

func (ck *ensemblesCheckpoint) wireKind() wire.Kind { return wire.KindEnsembles }

func (ck *ensemblesCheckpoint) encodePayload(e *wire.Encoder) {
	e.Uvarint(uint64(len(ck.Ensembles)))
	for _, run := range ck.Ensembles {
		e.Uvarint(uint64(len(run)))
		for _, cluster := range run {
			e.SortedInts(cluster)
		}
	}
}

func (ck *ensemblesCheckpoint) decodePayload(d *wire.Decoder) {
	runs := d.Count(1)
	ck.Ensembles = make([][][]int, 0, runs)
	for r := 0; r < runs && d.Err() == nil; r++ {
		clusters := d.Count(1)
		run := make([][]int, 0, clusters)
		for c := 0; c < clusters && d.Err() == nil; c++ {
			run = append(run, d.SortedInts())
		}
		ck.Ensembles = append(ck.Ensembles, run)
	}
}

// --- modules.json (v3): delta-coded consensus module member lists ---

func (ck *modulesCheckpoint) wireKind() wire.Kind { return wire.KindModules }

func (ck *modulesCheckpoint) encodePayload(e *wire.Encoder) {
	e.Uvarint(uint64(len(ck.ModuleVars)))
	for _, vars := range ck.ModuleVars {
		e.SortedInts(vars)
	}
}

func (ck *modulesCheckpoint) decodePayload(d *wire.Decoder) {
	nm := d.Count(1)
	ck.ModuleVars = make([][]int, 0, nm)
	for i := 0; i < nm && d.Err() == nil; i++ {
		ck.ModuleVars = append(ck.ModuleVars, d.SortedInts())
	}
}

// --- progress.json (v3): completed module units ---

func (ck *progressCheckpoint) wireKind() wire.Kind { return wire.KindProgress }

func (ck *progressCheckpoint) encodePayload(e *wire.Encoder) {
	e.Uvarint(uint64(len(ck.Units)))
	for _, u := range ck.Units {
		u.EncodeWire(e)
	}
}

func (ck *progressCheckpoint) decodePayload(d *wire.Decoder) {
	nu := d.Count(1)
	ck.Units = make([]*module.Unit, 0, nu)
	for i := 0; i < nu && d.Err() == nil; i++ {
		if u := module.DecodeUnitWire(d); u != nil {
			ck.Units = append(ck.Units, u)
		}
	}
}

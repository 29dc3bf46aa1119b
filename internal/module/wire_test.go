package module

import (
	"encoding/json"
	"reflect"
	"testing"

	"parsimone/internal/prng"
	"parsimone/internal/rank"
	"parsimone/internal/score"
	"parsimone/internal/wire"
)

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// learnUnits captures the real units a learning run produces — the exact
// payloads the progress manifest persists.
func learnUnits(t *testing.T) (*score.QData, []*Unit) {
	t.Helper()
	q, moduleVars, _ := fixture(t, 31)
	var units []*Unit
	prog := &Progress{OnUnit: func(u *Unit) error {
		units = append(units, u)
		return nil
	}}
	if _, err := LearnWithComm(rank.Self(nil), q, score.NewKernel(score.DefaultPrior(), q.N*q.M), moduleVars, defaultParams(), prng.New(9), prog); err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("learning produced no units")
	}
	return q, units
}

// TestUnitWireRoundTrip: the binary codec reproduces learned units exactly —
// trees (including the reconstructed internal nodes, validated against the
// full structural invariants), assigned splits with bit-exact posteriors,
// and membership lists.
func TestUnitWireRoundTrip(t *testing.T) {
	q, units := learnUnits(t)
	for _, u := range units {
		e := wire.NewEncoder()
		u.EncodeWire(e)
		d := wire.NewDecoder(e.Bytes())
		got := DecodeUnitWire(d)
		if err := d.Err(); err != nil {
			t.Fatalf("module %d: decode: %v", u.Module, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("module %d: %d bytes left over", u.Module, d.Remaining())
		}
		if !reflect.DeepEqual(got, u) {
			t.Fatalf("module %d: decoded unit differs from original", u.Module)
		}
		for ti, tr := range got.Trees {
			if err := tr.CheckInvariants(q); err != nil {
				t.Fatalf("module %d tree %d: reconstructed tree violates invariants: %v", u.Module, ti, err)
			}
		}
	}
}

// TestUnitWireCompact pins the size motivation: the binary unit is several
// times smaller than its JSON manifest form.
func TestUnitWireCompact(t *testing.T) {
	_, units := learnUnits(t)
	var binTotal, jsonTotal int
	for _, u := range units {
		e := wire.NewEncoder()
		u.EncodeWire(e)
		binTotal += len(e.Bytes())
		jsonTotal += len(jsonBytes(t, u))
	}
	if binTotal*4 > jsonTotal {
		t.Fatalf("binary units %dB vs JSON %dB — expected ≥4× smaller", binTotal, jsonTotal)
	}
}

// TestUnitWireCorruptFailsCleanly: truncations and bit flips of a valid
// encoding either fail with a decoder error or decode into *some* unit —
// they never panic. (Semantic validation against the consensus modules is
// loadProgress's job.)
func TestUnitWireCorruptFailsCleanly(t *testing.T) {
	_, units := learnUnits(t)
	e := wire.NewEncoder()
	units[0].EncodeWire(e)
	data := e.Bytes()
	for cut := 0; cut < len(data); cut += 7 {
		d := wire.NewDecoder(data[:cut])
		u := DecodeUnitWire(d)
		if u != nil && d.Err() != nil {
			t.Fatalf("cut %d: decoder returned both a unit and error %v", cut, d.Err())
		}
	}
	for i := 0; i < len(data); i += 11 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		d := wire.NewDecoder(mut)
		_ = DecodeUnitWire(d) // must not panic
	}
}

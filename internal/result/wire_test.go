package result

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"parsimone/internal/wire"
)

// wireBytes serializes n in the binary format.
func wireBytes(t testing.TB, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonNetBytes serializes n as JSON.
func jsonNetBytes(t testing.TB, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTripCases covers the shapes the codecs must preserve exactly,
// including the degenerate ones: no modules at all, an empty module, a
// single-variable module, weights at the quantization extremes, and names
// both derivable from the network table and deliberately divergent from it.
func roundTripCases() map[string]*Network {
	return map[string]*Network{
		"sample": sample(),
		"empty network": {
			N: 0, M: 0,
		},
		"empty modules": {
			N: 4, M: 7,
			Modules: []Module{{ID: 0}, {ID: 1, Variables: []int{}}},
		},
		"single-variable modules": {
			N: 3, M: 5,
			Modules: []Module{
				{ID: 0, Variables: []int{1}},
				{ID: 1, Variables: []int{2}, Parents: []Parent{{Index: 1, Score: 0.25, Count: 1}}},
			},
		},
		"max-quantized weights": {
			N: 2, M: 2,
			Modules: []Module{{ID: 0, Variables: []int{0, 1}, Parents: []Parent{
				{Index: 0, Score: math.MaxFloat64, Count: math.MaxInt32},
				{Index: 1, Score: -math.MaxFloat64, Count: 0},
			}, ParentsUniform: []Parent{
				{Index: 0, Score: math.SmallestNonzeroFloat64, Count: 1},
				{Index: 1, Score: math.Copysign(0, -1), Count: 1},
			}}},
		},
		"derived names": {
			N: 3, M: 1,
			Names: []string{"a", "b", "c"},
			Modules: []Module{{ID: 0, Variables: []int{0, 2}, VariableNames: []string{"a", "c"},
				Parents: []Parent{{Index: 1, Name: "b", Score: 1, Count: 1}}}},
		},
		"explicit names": {
			N: 3, M: 1,
			Names: []string{"a", "b", "c"},
			Modules: []Module{{ID: 0, Variables: []int{0, 2}, VariableNames: []string{"x", "y"},
				Parents: []Parent{{Index: 1, Name: "renamed", Score: 1, Count: 1}}}},
		},
	}
}

// TestNetworkBinaryRoundTrip: ReadBinary(WriteBinary(n)) preserves the
// network exactly — Equal on the structures, and byte-identical on a second
// serialization, the determinism_test.go standard for "the same network".
func TestNetworkBinaryRoundTrip(t *testing.T) {
	for name, n := range roundTripCases() {
		t.Run(name, func(t *testing.T) {
			first := wireBytes(t, n)
			got, err := ReadBinary(bytes.NewReader(first))
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got, n) {
				t.Fatalf("decoded network differs:\n got %+v\nwant %+v", got, n)
			}
			if second := wireBytes(t, got); !bytes.Equal(first, second) {
				t.Fatal("re-serializing the decoded network changed the bytes")
			}
		})
	}
}

// TestNetworkJSONRoundTrip: the same exactness holds for the JSON codec.
func TestNetworkJSONRoundTrip(t *testing.T) {
	for name, n := range roundTripCases() {
		t.Run(name, func(t *testing.T) {
			first := jsonNetBytes(t, n)
			got, err := ReadJSON(bytes.NewReader(first))
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got, n) {
				t.Fatalf("decoded network differs:\n got %+v\nwant %+v", got, n)
			}
			if second := jsonNetBytes(t, got); !bytes.Equal(first, second) {
				t.Fatal("re-serializing the decoded network changed the bytes")
			}
		})
	}
}

// TestNetworkBinaryDerivedNamesCompact: when module and parent names match
// the network table, the binary form stores each name once.
func TestNetworkBinaryDerivedNamesCompact(t *testing.T) {
	derived := roundTripCases()["derived names"]
	explicit := roundTripCases()["explicit names"]
	if dl, el := len(wireBytes(t, derived)), len(wireBytes(t, explicit)); dl >= el {
		t.Fatalf("derived-name encoding (%d bytes) not smaller than explicit (%d bytes)", dl, el)
	}
}

func TestReadJSONRejects(t *testing.T) {
	valid := string(jsonNetBytes(t, sample()))
	cases := map[string]struct {
		data string
		want string
	}{
		"truncated":     {valid[:len(valid)/2], "unexpected EOF"},
		"unknown field": {`{"n":1,"m":1,"bogus":3,"modules":[]}`, `unknown field "bogus"`},
		"trailing":      {valid + "{}", "trailing data"},
		"NaN score": {`{"n":2,"m":1,"modules":[{"id":0,"variables":[0],"parents":[{"index":1,"name":"","score":"NaN","count":1}]}]}`,
			"cannot unmarshal"},
		"negative shape": {`{"n":-1,"m":1,"modules":[]}`, "negative data shape"},
		"parent out of range": {`{"n":1,"m":1,"modules":[{"id":0,"variables":[0],"parents":[{"index":5,"name":"","score":1,"count":1}]}]}`,
			"out of range"},
		"uniform parent out of range": {`{"n":1,"m":1,"modules":[{"id":0,"variables":[0],"parentsUniform":[{"index":5,"name":"","score":1,"count":1}]}]}`,
			"out of range"},
		"names length mismatch": {`{"n":3,"m":1,"names":["a"],"modules":[]}`, "1 names for 3 variables"},
		"variable names length mismatch": {`{"n":3,"m":1,"modules":[{"id":0,"variables":[0,1],"variableNames":["a"]}]}`,
			"1 variable names for 2 variables"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadJSON(strings.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckLoadedRejectsNonFinite: NaN and ±Inf scores cannot be expressed
// in JSON but can in the binary format — checkLoaded guards both readers.
func TestCheckLoadedRejectsNonFinite(t *testing.T) {
	for name, score := range map[string]float64{
		"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1),
	} {
		t.Run(name, func(t *testing.T) {
			n := sample()
			n.Modules[1].Parents[0].Score = score
			data := wireBytes(t, n)
			if _, err := ReadBinary(bytes.NewReader(data)); err == nil ||
				!strings.Contains(err.Error(), "non-finite score") {
				t.Fatalf("got %v, want a non-finite-score rejection", err)
			}
		})
	}
}

func TestReadBinaryRejects(t *testing.T) {
	valid := wireBytes(t, sample())
	t.Run("wrong kind", func(t *testing.T) {
		data := wire.EncodeFile(wire.Header{Kind: wire.KindModules}, nil)
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil ||
			!strings.Contains(err.Error(), "expected a network") {
			t.Fatalf("got %v, want a kind rejection", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		data := append([]byte{}, valid...)
		data[4]++ // version varint sits right after the 4-byte magic
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil ||
			!strings.Contains(err.Error(), "this build expects") {
			t.Fatalf("got %v, want a version rejection", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := ReadBinary(bytes.NewReader(valid[:cut])); err == nil {
				t.Fatalf("truncation to %d bytes read without error", cut)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		// A flipped bit must never panic; it may still decode to a valid
		// network (e.g. a changed score bit), so only absence of panics and
		// of non-finite scores is asserted — checkLoaded runs inside.
		for i := range valid {
			data := append([]byte{}, valid...)
			data[i] ^= 0x10
			_, _ = ReadBinary(bytes.NewReader(data))
		}
	})
}

// FuzzWireNetwork feeds arbitrary bytes to ReadBinary and ReadJSON: no
// input may panic, and any network that decodes must pass checkLoaded (the
// readers validate internally, so a non-nil result is a valid network).
func FuzzWireNetwork(f *testing.F) {
	for _, n := range roundTripCases() {
		var bin, js bytes.Buffer
		if err := n.WriteBinary(&bin); err != nil {
			f.Fatal(err)
		}
		if err := n.WriteJSON(&js); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes())
		f.Add(js.Bytes())
	}
	for _, n := range roundTripCases() {
		var x bytes.Buffer
		if err := n.WriteXML(&x); err != nil {
			f.Fatal(err)
		}
		f.Add(x.Bytes())
	}
	for _, data := range invalidXML {
		f.Add([]byte(data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, err := ReadBinary(bytes.NewReader(data)); err == nil {
			if verr := checkLoaded(n); verr != nil {
				t.Fatalf("ReadBinary returned an invalid network: %v", verr)
			}
		}
		if n, err := ReadJSON(bytes.NewReader(data)); err == nil {
			if verr := checkLoaded(n); verr != nil {
				t.Fatalf("ReadJSON returned an invalid network: %v", verr)
			}
		}
		if n, err := ReadXML(bytes.NewReader(data)); err == nil {
			if verr := checkLoaded(n); verr != nil {
				t.Fatalf("ReadXML returned an invalid network: %v", verr)
			}
		}
	})
}

// invalidXML are well-formed XML networks no learn produces, each with the
// refusal ReadXML must give.
var invalidXML = map[string]string{
	`<moduleNetwork variables="3" observations="2"><module id="0"><variables><var>7</var></variables></module></moduleNetwork>`:                                                                     "outside [0,3)",
	`<moduleNetwork variables="3" observations="2"><module id="0"><variables><var>0</var></variables><parents><parent index="-4" score="1" count="1"></parent></parents></module></moduleNetwork>`:  "out of range",
	`<moduleNetwork variables="3" observations="2"><module id="0"><variables><var>0</var></variables><parents><parent index="1" score="NaN" count="1"></parent></parents></module></moduleNetwork>`: "non-finite score",
	`<moduleNetwork variables="-1" observations="2"></moduleNetwork>`: "negative data shape",
	`<moduleNetwork variables="3" observations="2"><module id="0"><variables><var>0</var></variables><randomParents><parent index="9" score="1" count="1"></parent></randomParents></module></moduleNetwork>`: "out of range",
}

// TestReadXMLRejects: ReadXML refuses an out-of-range variable or parent,
// a non-finite score and a negative shape, as the other two readers do.
func TestReadXMLRejects(t *testing.T) {
	for data, want := range invalidXML {
		if _, err := ReadXML(strings.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", data, err, want)
		}
	}
}

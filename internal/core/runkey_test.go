package core

import (
	"reflect"
	"testing"

	"parsimone/internal/dataset"
	"parsimone/internal/synth"
)

// TestRunKeyPinned: the key the parent commit 1bb2f8d (stream layout 1, no
// layout in the key) computed for this exact data set and these options must
// not be the key this build computes — a cache entry or a checkpoint of
// another layout never matches. The key this build computes is pinned: it
// names the service's cache entries and checkpoint directories
// (root/key[:16]) and stamps every checkpoint file, which all stay valid only
// while its value does not move. It last moved when the nine algorithm
// constants (K₀, L₀, the peeling cut-offs, the bootstrap's early stop) left
// the canonical options.
func TestRunKeyPinned(t *testing.T) {
	const (
		layout1Key = "93d570dd5bf7ed82ed851fa6d8e4748884b8ffe13cae09cbde1b6431c9af7a62"
		pinnedKey  = "7eb8167b0bec6977b0c13edca8dd7a20a7b6f7b102f6691a1de408f33ebc6328"
	)
	d, _, err := synth.Generate(synth.Config{N: 12, M: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seed = 7
	got := RunKey(d, opt)
	if got == layout1Key {
		t.Fatal("run key unchanged from the layout-1 build: old entries and checkpoints would be mixed into layout-2 results")
	}
	if got != pinnedKey {
		t.Fatalf("run key %s, pinned %s", got, pinnedKey)
	}
}

// resultInvisible names every leaf of Options (nested params included) that
// must NOT enter the run key: the scheduling, supervision and observability
// settings, each documented result-invisible where it is declared.
var resultInvisible = []string{
	"RecordWork", "Workers", "CheckpointDir", "BinaryCheckpoints",
	"MaxRestarts", "Inject", "Events", "Metrics", "Ctx",
	"Module.Splits.DynamicChunk", "Module.Splits.ScanSelection",
}

// TestRunKeyClassifiesEveryOption guards the hand-written canonicalOptions
// mirror: walking Options and its nested score / ganesh / consensus / module
// / splits structs, changing any one leaf must change RunKey unless the leaf
// is listed in resultInvisible, and a listed leaf must leave the key alone. A
// field added to any of those structs fails here until it is either hashed
// or listed — it cannot silently alias two different learning problems onto
// one cache entry, one checkpoint directory or one checkpoint stamp.
func TestRunKeyClassifiesEveryOption(t *testing.T) {
	d := dataset.New(2, 2)
	base := RunKey(d, DefaultOptions())
	invisible := map[string]bool{}
	for _, path := range resultInvisible {
		invisible[path] = true
	}
	var walk func(prefix string, typ reflect.Type, index []int)
	walk = func(prefix string, typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path, at := prefix+f.Name, append(index[:len(index):len(index)], i)
			if f.Type.Kind() == reflect.Struct {
				walk(path+".", f.Type, at)
				continue
			}
			listed := invisible[path]
			delete(invisible, path)
			opt := DefaultOptions()
			v := reflect.ValueOf(&opt).Elem().FieldByIndex(at)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.5)
			case reflect.String:
				v.SetString(v.String() + "x")
			case reflect.Slice:
				v.Set(reflect.Append(v, reflect.Zero(f.Type.Elem())))
			case reflect.Pointer:
				v.Set(reflect.New(f.Type.Elem()))
			case reflect.Interface:
				// No value to hash; it can only be classified by listing.
			default:
				t.Fatalf("%s: kind %s not handled by this test", path, v.Kind())
			}
			hashed := RunKey(d, opt) != base
			switch {
			case hashed && listed:
				t.Errorf("%s is listed result-invisible but changes the run key", path)
			case !hashed && !listed:
				t.Errorf("%s is neither hashed into the run key nor listed result-invisible", path)
			}
		}
	}
	walk("", reflect.TypeOf(Options{}), nil)
	for path := range invisible {
		t.Errorf("resultInvisible names %s, which is not a leaf of Options", path)
	}
}

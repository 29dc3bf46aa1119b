package core

import (
	"reflect"
	"testing"

	"parsimone/internal/comm"
	"parsimone/internal/obs"
)

// TestOptionsCarryNoExecutionPlumbing: Options and its nested params say what
// to learn; how a rank runs lives in the rank's run context (DESIGN §21). No
// sink or signal may ride a params struct, and the worker count is set in one
// place, so the per-task copies cannot come back one struct at a time.
func TestOptionsCarryNoExecutionPlumbing(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf((*obs.Hooks)(nil)):     true,
		reflect.TypeOf((*comm.Canceler)(nil)): true,
	}
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := prefix + f.Name
			if banned[f.Type] {
				t.Errorf("%s has type %s: sinks and signals belong to rank.Context", path, f.Type)
			}
			if f.Name == "Workers" && prefix != "" {
				t.Errorf("%s: the worker count is Options.Workers alone", path)
			}
			if f.Type.Kind() == reflect.Struct {
				walk(path+".", f.Type)
			}
		}
	}
	walk("", reflect.TypeOf(Options{}))
}

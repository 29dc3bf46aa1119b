package main

import (
	"reflect"
	"sort"
	"testing"
)

// TestAnalyzerTable pins one analyzer per contract: seven analyzers with
// distinct names, each owning its own suppression keyword. Two analyzers
// sharing a keyword would let -strict-suppressions count one analyzer's
// audit as the other's.
func TestAnalyzerTable(t *testing.T) {
	names := map[string]bool{}
	var kws []string
	for _, a := range analyzers {
		if names[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		names[a.Name] = true
		kws = append(kws, a.Suppress)
	}
	sort.Strings(kws)
	want := []string{"commreach", "errsink", "floateq", "ordered", "scorekernel", "seqcount", "wallclock"}
	if len(analyzers) != 7 || !reflect.DeepEqual(kws, want) {
		t.Errorf("%d analyzers owning %v; want 7 owning %v", len(analyzers), kws, want)
	}
}

// TestRunExitStatus pins the exit contract: 0 on a clean package, 2 on a
// usage error (the retired -fast flag) and on a pattern that fails to load.
func TestRunExitStatus(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-strict-suppressions", "parsimone/internal/prng"}, 0},
		{[]string{"-fast", "parsimone/internal/prng"}, 2},
		{[]string{"parsimone/internal/nosuchpackage"}, 2},
	}
	for _, c := range cases {
		if got := run(c.args); got != c.want {
			t.Errorf("run(%q) = %d; want %d", c.args, got, c.want)
		}
	}
}

package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

func TestParseSuppressions(t *testing.T) {
	cases := []struct {
		text string
		kws  []string
	}{
		{"//parsivet:ordered", []string{"ordered"}},
		{"//parsivet:ordered — keys sorted below", []string{"ordered"}},
		{"//parsivet:wallclock harness timing", []string{"wallclock"}},
		{"//parsivet:commreach,errsink — audited drop", []string{"commreach", "errsink"}},
		{"//parsivet:commreach,errsink,wallclock why", []string{"commreach", "errsink", "wallclock"}},
		{"//parsivet:commreach, errsink — space breaks the list", []string{"commreach"}},
		{"// parsivet:ordered", nil}, // space breaks the marker, like //go: directives
		{"//parsivet:", nil},
		{"//parsivet:,ordered", nil}, // the list must open with a keyword
		{"// plain comment", nil},
		{"//parsivet:ORDERED", nil}, // keywords are lower-case
	}
	for _, c := range cases {
		if kws := parseSuppressions(c.text); !reflect.DeepEqual(kws, c.kws) {
			t.Errorf("parseSuppressions(%q) = %v; want %v", c.text, kws, c.kws)
		}
	}
}

func trackerFor(t *testing.T, src string) *suppTracker {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return newSuppTracker(fset, []*ast.File{f})
}

func TestSuppressionTracker(t *testing.T) {
	src := `package p

func f(m map[int]int) {
	//parsivet:ordered — above the site
	for range m {
	}
	_ = m //parsivet:floateq trailing
}
`
	idx := trackerFor(t, src)
	at := func(line int, kw string) Diagnostic {
		return Diagnostic{Suppress: kw, Position: token.Position{Filename: "p.go", Line: line}}
	}
	if !idx.suppressed(at(5, "ordered")) {
		t.Error("line 5 should be suppressed by the comment on line 4")
	}
	if !idx.suppressed(at(4, "ordered")) {
		t.Error("line 4 carries the comment itself")
	}
	if idx.suppressed(at(5, "floateq")) {
		t.Error("keyword must match the analyzer")
	}
	if !idx.suppressed(at(7, "floateq")) {
		t.Error("trailing comment on line 7 should suppress")
	}
	if idx.suppressed(at(6, "ordered")) {
		t.Error("suppression must not leak two lines down")
	}
}

// TestSuppressionMultiLineStatement pins the line-above convention for a
// flagged statement that spans several lines: the diagnostic anchors at the
// statement's first line, so the comment above that line silences it —
// and lines further into the statement do not.
func TestSuppressionMultiLineStatement(t *testing.T) {
	src := `package p

func g() error { return nil }

func f() {
	//parsivet:errsink — audited: probe only
	_ = g(
	)
}
`
	idx := trackerFor(t, src)
	d := Diagnostic{Suppress: "errsink", Position: token.Position{Filename: "p.go", Line: 7}}
	if !idx.suppressed(d) {
		t.Error("statement starting on line 7 should be suppressed by the comment on line 6")
	}
	d.Position.Line = 8
	if idx.suppressed(d) {
		t.Error("an anchor on the statement's continuation line must not match")
	}
}

// TestSuppressionMultipleKeywords pins the comma convention: one comment
// silences findings of several analyzers on the same line.
func TestSuppressionMultipleKeywords(t *testing.T) {
	src := `package p

func f() {
	//parsivet:commreach,errsink — one audited site, two analyzers
	work()
}

func work() {}
`
	idx := trackerFor(t, src)
	for _, kw := range []string{"commreach", "errsink"} {
		d := Diagnostic{Suppress: kw, Position: token.Position{Filename: "p.go", Line: 5}}
		if !idx.suppressed(d) {
			t.Errorf("keyword %q of the comma list should suppress", kw)
		}
	}
	d := Diagnostic{Suppress: "wallclock", Position: token.Position{Filename: "p.go", Line: 5}}
	if idx.suppressed(d) {
		t.Error("a keyword outside the comma list must not suppress")
	}
}

// TestStaleSuppressions pins the -strict-suppressions contract: an entry
// that silenced a finding is live, one that silenced nothing is stale, and
// a keyword no analyzer owns is unknown.
func TestStaleSuppressions(t *testing.T) {
	src := `package p

func f() {
	//parsivet:ordered — live below
	work()
	//parsivet:ordered — stale, silences nothing
	rest()
	//parsivet:wallclok typo keyword
	other()
}

func work() {}
func rest() {}
func other() {}
`
	idx := trackerFor(t, src)
	// The finding on line 5 is silenced by the line-4 entry.
	if !idx.suppressed(Diagnostic{Suppress: "ordered", Position: token.Position{Filename: "p.go", Line: 5}}) {
		t.Fatal("line 5 should be suppressed")
	}
	analyzers := []*Analyzer{
		{Name: "maporder", Suppress: "ordered"},
		{Name: "detreach", Suppress: "wallclock"},
	}
	stale := idx.stale(analyzers)
	if len(stale) != 2 {
		t.Fatalf("got %d stale findings, want 2: %v", len(stale), stale)
	}
	if stale[0].Position.Line != 6 || !strings.Contains(stale[0].Message, "stale suppression //parsivet:ordered") {
		t.Errorf("unexpected stale finding: %s", stale[0])
	}
	if stale[1].Position.Line != 8 || !strings.Contains(stale[1].Message, `unknown suppression keyword "wallclok"`) {
		t.Errorf("unexpected unknown-keyword finding: %s", stale[1])
	}
	for _, d := range stale {
		if d.Suppress != "" {
			t.Errorf("stale findings must not be suppressible: %s", d)
		}
	}
}

func TestWriteJSONAndText(t *testing.T) {
	diags := []Diagnostic{
		{
			Analyzer: "maporder",
			Suppress: "ordered",
			Position: token.Position{Filename: "x.go", Line: 3, Column: 2},
			Message:  "range over map",
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 1 {
		t.Fatalf("unexpected JSON payload: %s", buf.String())
	}
	want := map[string]any{
		"file": "x.go", "line": float64(3), "column": float64(2),
		"analyzer": "maporder", "suppress": "ordered", "message": "range over map",
	}
	if !reflect.DeepEqual(decoded[0], want) {
		t.Errorf("JSON schema mismatch:\n got %v\nwant %v", decoded[0], want)
	}

	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty findings must encode as [], got %q", buf.String())
	}

	buf.Reset()
	if err := WriteText(&buf, diags); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "x.go:3:2: [maporder] range over map\n" {
		t.Errorf("unexpected text rendering %q", got)
	}
}

// TestLoaderLoadsModulePackage exercises the go list + go/types pipeline on
// a real in-module package.
func TestLoaderLoadsModulePackage(t *testing.T) {
	pkgs, err := NewLoader().Load("parsimone/internal/prng")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Types.Name() != "prng" || len(p.Files) == 0 || len(p.Info.Defs) == 0 {
		t.Errorf("package not fully loaded: name=%q files=%d defs=%d",
			p.Types.Name(), len(p.Files), len(p.Info.Defs))
	}
}

// TestTestdataInvisibleToDriver pins why //parsivet: comments inside the
// analyzers' testdata packages can never go stale under the driver's
// -strict-suppressions: `go list ./...` — the driver's package
// enumeration — skips testdata directories entirely, so the audited
// fixtures there are only ever loaded by the analysistest harness.
func TestTestdataInvisibleToDriver(t *testing.T) {
	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	for _, path := range strings.Fields(string(out)) {
		if strings.Contains(path, "testdata") {
			t.Errorf("go list ./... must not surface testdata packages, got %s", path)
		}
	}
}

// Package analysis is a minimal, dependency-free analog of the
// golang.org/x/tools/go/analysis framework, sized for this repository's
// parsivet suite (cmd/parsivet). It exists because the reproduction's
// central invariant — every (p, W) configuration makes identical
// score-weighted random choices, so the learned network is bit-identical to
// the sequential baseline — is threatened by bug classes that are visible
// at compile time: map-iteration order in deterministic code, stray
// wallclock/PRNG reads in decision paths, raw float equality, rank-skewed
// collective calls, and ad-hoc goroutines outside the p×W worker-pool
// model. The dynamic guards (TestPInvariance, the crash-at-every-failpoint
// acceptance suite) catch these after the fact; the analyzers here catch
// them before any test runs.
//
// The framework mirrors the x/tools surface (Analyzer, Pass, Diagnostic, a
// driver, an analysistest-style harness) but is built only on the standard
// library's go/ast, go/parser, and go/types, loading packages through `go
// list` — no module downloads, no network, build-cache-friendly.
//
// # Suppression convention
//
// Every analyzer has its own suppression keyword. A finding is silenced by
// a `//parsivet:<keyword>` comment on the flagged line or on the line
// directly above it; the rest of the comment line should say why the site
// is safe, e.g.
//
//	//parsivet:ordered — keys are collected and sorted two lines down
//	for k := range m { ... }
//
// A site flagged by more than one analyzer carries the keywords
// comma-separated in a single comment: //parsivet:commreach,errsink — why.
// The keywords are "ordered" (maporder), "floateq" (floateq), "seqcount"
// (seqcount), "scorekernel" (scorekernel), and — for the interprocedural
// analyzers layered on the callgraph subpackage — "wallclock" (detreach),
// "commreach", and "errsink".
//
// Suppressions are tracked: the strict driver mode (`parsivet
// -strict-suppressions`, wired into `make lint`) reports any //parsivet:
// comment that no longer silences a finding and any keyword no analyzer
// owns, so audited sites cannot silently outlive the hazard they audit.
//
// # Per-package and whole-program analyzers
//
// An Analyzer provides Run (one package at a time, syntactic) or
// RunProgram (all packages at once, for the interprocedural checks that
// follow call chains across package boundaries). The driver runs the
// per-package analyzers over every package, then each whole-program
// analyzer once over the full Program.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and JSON output.
	Name string
	// Doc is a one-paragraph description shown by `parsivet -help`.
	Doc string
	// Suppress is the //parsivet:<keyword> that silences a finding of
	// this analyzer on the flagged line or the line above it.
	Suppress string
	// Run inspects one package and reports findings through the pass.
	// Nil for whole-program analyzers.
	Run func(*Pass) error
	// RunProgram inspects all packages at once, for interprocedural
	// checks. Nil for per-package analyzers.
	RunProgram func(*ProgramPass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	report    func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Suppress: p.Analyzer.Suppress,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding with its resolved file position.
type Diagnostic struct {
	Analyzer string
	Suppress string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// MarshalJSON renders the finding in the `parsivet -json` schema: the
// position is flattened into file/line/column fields so CI and editors can
// jump to the site, and the suppression keyword is included so tooling can
// propose the annotation. The schema is documented in cmd/parsivet.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Suppress string `json:"suppress,omitempty"`
		Message  string `json:"message"`
	}{
		File:     d.Position.Filename,
		Line:     d.Position.Line,
		Column:   d.Position.Column,
		Analyzer: d.Analyzer,
		Suppress: d.Suppress,
		Message:  d.Message,
	})
}

// DeterministicPackages names the packages whose code feeds the
// bit-identity invariant: every value they compute must be a pure function
// of (data, seed, options), independent of p, W, scheduling, and map order.
// Matching is by package name: the testdata packages of the analyzer tests
// reuse these names to trigger the checks.
var DeterministicPackages = map[string]bool{
	"core":       true,
	"ganesh":     true,
	"splits":     true,
	"consensus":  true,
	"score":      true,
	"tree":       true,
	"module":     true,
	"result":     true,
	"cluster":    true,
	"ltbaseline": true,
	"genomica":   true,
	"wire":       true,
}

// WallclockExempt names the packages allowed to read the wallclock and
// host PRNGs: observability, tracing, and the benchmark harness, none of
// which feed learned-network state.
var WallclockExempt = map[string]bool{
	"obs":   true,
	"trace": true,
	"bench": true,
}

// IsDeterministic reports whether pkg is one of the bit-identity packages.
func IsDeterministic(pkg *types.Package) bool {
	return pkg != nil && DeterministicPackages[pkg.Name()]
}

// InPackage reports whether pkg is the package named name (comm, wire),
// matched by import-path suffix so the analyzer testdata resolves too.
func InPackage(pkg *types.Package, name string) bool {
	return pkg != nil && (pkg.Path() == name || strings.HasSuffix(pkg.Path(), "/"+name))
}

// Program is the whole-program view the interprocedural analyzers run on:
// every package under analysis, loaded through one loader so type
// identities are shared across package boundaries.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	memo map[string]any
}

// NewProgram groups already-loaded packages into one program. All packages
// must share one loader (and hence one file set).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Packages: pkgs}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	return p
}

// Memo returns the value cached under key, building and caching it on
// first use. The call graph is built once per run this way and shared by
// every interprocedural analyzer. Not safe for concurrent use; the driver
// runs analyzers sequentially.
func (p *Program) Memo(key string, build func() any) any {
	if v, ok := p.memo[key]; ok {
		return v
	}
	if p.memo == nil {
		p.memo = map[string]any{}
	}
	v := build()
	p.memo[key] = v
	return v
}

// ProgramPass carries one whole-program analyzer's view of the program.
type ProgramPass struct {
	Analyzer *Analyzer
	Program  *Program
	report   func(Diagnostic)
	supp     *suppTracker
}

// Reportf records one finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Suppress: p.Analyzer.Suppress,
		Position: p.Program.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// SuppressedAt reports whether pos carries a //parsivet:<kw> comment on
// its line or the line above. The interprocedural analyzers use it to
// treat audited sites as taint barriers; a consulted suppression counts as
// used for -strict-suppressions.
func (p *ProgramPass) SuppressedAt(pos token.Pos, kw string) bool {
	position := p.Program.Fset.Position(pos)
	return p.supp.match(position.Filename, position.Line, kw)
}

// suppEntry is one keyword of one //parsivet: comment.
type suppEntry struct {
	kw   string
	pos  token.Position
	used bool
}

// suppTracker indexes every //parsivet: comment of a program and records
// which entries actually silenced — or were consulted as a taint barrier
// by — a finding. Entries still unused after a run are the stale
// suppressions -strict-suppressions reports.
type suppTracker struct {
	byLine map[string]map[int][]*suppEntry
	all    []*suppEntry // source order
}

func newSuppTracker(fset *token.FileSet, files []*ast.File) *suppTracker {
	t := &suppTracker{byLine: map[string]map[int][]*suppEntry{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, kw := range parseSuppressions(c.Text) {
					e := &suppEntry{kw: kw, pos: pos}
					m := t.byLine[pos.Filename]
					if m == nil {
						m = map[int][]*suppEntry{}
						t.byLine[pos.Filename] = m
					}
					m[pos.Line] = append(m[pos.Line], e)
					t.all = append(t.all, e)
				}
			}
		}
	}
	return t
}

// parseSuppressions extracts the keywords of a //parsivet:<kw>[,<kw>...]
// comment. Keywords are lower-case words; the justification text begins at
// the first rune that is neither a keyword letter nor a separating comma.
func parseSuppressions(text string) []string {
	rest, ok := strings.CutPrefix(text, "//parsivet:")
	if !ok {
		return nil
	}
	var kws []string
	for {
		i := strings.IndexFunc(rest, func(r rune) bool {
			return !('a' <= r && r <= 'z')
		})
		kw := rest
		if i >= 0 {
			kw = rest[:i]
		}
		if kw == "" {
			break
		}
		kws = append(kws, kw)
		if i < 0 || rest[i] != ',' {
			break
		}
		rest = rest[i+1:]
	}
	return kws
}

// match reports whether a kw suppression sits on line or the line above in
// file, marking every matching entry used.
func (t *suppTracker) match(file string, line int, kw string) bool {
	m := t.byLine[file]
	if m == nil {
		return false
	}
	found := false
	for _, l := range []int{line, line - 1} {
		for _, e := range m[l] {
			if e.kw == kw {
				e.used = true
				found = true
			}
		}
	}
	return found
}

// suppressed reports whether d is silenced by a matching //parsivet
// comment on its line or the line above.
func (t *suppTracker) suppressed(d Diagnostic) bool {
	if d.Suppress == "" {
		return false
	}
	return t.match(d.Position.Filename, d.Position.Line, d.Suppress)
}

// stale returns one diagnostic per suppression entry that no analyzer of
// the run used — the comment outlived the finding it once silenced — and
// per keyword no analyzer of the run owns. The returned diagnostics carry
// no Suppress keyword: a stale suppression is fixed by deleting it, not by
// suppressing the report.
func (t *suppTracker) stale(analyzers []*Analyzer) []Diagnostic {
	owned := map[string]bool{}
	for _, a := range analyzers {
		if a.Suppress != "" {
			owned[a.Suppress] = true
		}
	}
	var diags []Diagnostic
	for _, e := range t.all {
		switch {
		case !owned[e.kw]:
			diags = append(diags, Diagnostic{
				Analyzer: "suppressions",
				Position: e.pos,
				Message: fmt.Sprintf("unknown suppression keyword %q: no analyzer in this run owns it; fix the keyword or delete the comment",
					e.kw),
			})
		case !e.used:
			diags = append(diags, Diagnostic{
				Analyzer: "suppressions",
				Position: e.pos,
				Message: fmt.Sprintf("stale suppression //parsivet:%s: it silences no finding on this line or the line below; delete the comment",
					e.kw),
			})
		}
	}
	return diags
}

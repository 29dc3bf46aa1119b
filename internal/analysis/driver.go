// The driver runs a set of analyzers over loaded packages, applies the
// //parsivet suppression convention, and renders findings as text or JSON.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"io"
	"sort"
)

// AnalyzeProgram runs the analyzers over all packages of prog: per-package
// analyzers over each package in turn, whole-program analyzers once over
// the full program. Findings come back unsuppressed and in position order.
func AnalyzeProgram(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := analyzeProgram(prog, analyzers)
	return diags, err
}

func analyzeProgram(prog *Program, analyzers []*Analyzer) ([]Diagnostic, *suppTracker, error) {
	var files []*ast.File
	for _, pkg := range prog.Packages {
		files = append(files, pkg.Files...)
	}
	tracker := newSuppTracker(prog.Fset, files)
	var diags []Diagnostic
	report := func(d Diagnostic) {
		if !tracker.suppressed(d) {
			diags = append(diags, d)
		}
	}
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    report,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{Analyzer: a, Program: prog, report: report, supp: tracker}
		if err := a.RunProgram(pass); err != nil {
			return nil, nil, fmt.Errorf("analysis: %s: %v", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, tracker, nil
}

// Run loads the packages matching patterns and analyzes them as one
// program, returning all findings sorted by position.
func Run(patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := load(patterns, analyzers)
	return diags, err
}

// RunStrict is Run plus stale-suppression detection: every //parsivet:
// comment that silenced nothing in this run (and every keyword no analyzer
// of the run owns) comes back as a "suppressions" finding, so audited
// sites cannot outlive the hazard they audit. Strict runs only make sense
// with the full analyzer set — a subset would misreport the excluded
// analyzers' keywords as stale.
func RunStrict(patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, tracker, err := load(patterns, analyzers)
	if err != nil {
		return nil, err
	}
	diags = append(diags, tracker.stale(analyzers)...)
	sortDiagnostics(diags)
	return diags, nil
}

func load(patterns []string, analyzers []*Analyzer) ([]Diagnostic, *suppTracker, error) {
	pkgs, err := NewLoader().Load(patterns...)
	if err != nil {
		return nil, nil, err
	}
	return analyzeProgram(NewProgram(pkgs), analyzers)
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// WriteText renders findings one per line in the go vet style.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders findings as an indented JSON array (always an array,
// "[]" when clean) in the Diagnostic.MarshalJSON schema documented in
// cmd/parsivet.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

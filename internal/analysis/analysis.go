// Package analysis is a small, dependency-free static-analysis framework
// for this repository's own invariants, in the shape of golang.org/x/tools'
// go/analysis but built purely on the standard library (go/ast, go/types,
// go/build). cmd/mlint drives it over the module; the analyzers themselves
// live in internal/analysis/analyzers.
//
// The framework exists because the system's correctness arguments lean on
// properties ordinary vet checks do not know about: the simulation engine
// must be deterministic (no wall clock, no global rand, no map-order
// dependence), the wire layer's sticky-error contract must be honored, obs
// names form a namespace, and daemon locks must not be held across blocking
// operations. See docs/ANALYSIS.md for the catalog.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in output ("[simdeterminism]").
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Reportf.
	Run func(*Pass) error
	// RunModule, when set instead of Run, applies the analyzer once to
	// every loaded package together (pass.Packages), after the
	// per-package runs.
	RunModule func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package and collects
// its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	// PkgPath is the package's import path. Tests may override it so a
	// testdata package can stand in for a real one (the determinism
	// analyzer decides by path).
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info
	// Shared persists across packages within one driver run, keyed by
	// analyzer name; obsnames uses it to detect cross-package duplicates.
	Shared map[string]any
	// Packages is every loaded package, set only for RunModule.
	Packages []*LoadedPackage

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Category is the suppression key: a "//lint:<category>" comment on
	// the offending line (or the line above it) silences the finding.
	Category string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos under the given suppression category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant shorthand for Pass.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// CalleeObj resolves the called function or method of a call expression to
// its types.Object (following selector expressions), or nil for indirect
// calls and type conversions.
func (p *Pass) CalleeObj(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.ObjectOf(fun)
	case *ast.SelectorExpr:
		return p.ObjectOf(fun.Sel)
	}
	return nil
}

// sortDiags orders diagnostics by file, line, column, analyzer for stable
// output.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// suppressPrefix is the escape hatch: a comment "//lint:<category>" on the
// offending line, or alone on the line above it, silences findings of that
// category. Several categories may share one comment ("//lint:wallclock
// real engine timers"); everything after the category word is free-form
// justification.
const suppressPrefix = "//lint:"

// suppressions maps file -> line -> categories suppressed at that line.
type suppressions map[string]map[int]map[string]bool

// collectSuppressions scans the comments of the loaded files.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, suppressPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, suppressPrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := sup[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					sup[pos.Filename] = lines
				}
				// The directive covers its own line and the next one, so it
				// can trail the offending statement or sit above it.
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					if lines[ln] == nil {
						lines[ln] = map[string]bool{}
					}
					lines[ln][fields[0]] = true
				}
			}
		}
	}
	return sup
}

func (s suppressions) covers(d Diagnostic) bool {
	return s[d.Pos.Filename][d.Pos.Line][d.Category]
}

// Run applies the analyzers to pkgs, which share one FileSet: each
// per-package analyzer to every package in turn, then each module analyzer
// once to all of them. It returns the unsuppressed findings, sorted by
// position.
func Run(pkgs []*LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	var files []*ast.File
	shared := map[string]any{}
	for _, lp := range pkgs {
		files = append(files, lp.Files...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, PkgPath: lp.PkgPath, Fset: lp.Fset, Files: lp.Files, Info: lp.Info,
				Shared: shared, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, lp.PkgPath, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: pkgs[0].Fset, Files: files, Packages: pkgs, diags: &diags}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sup := collectSuppressions(pkgs[0].Fset, files)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.covers(d) {
			kept = append(kept, d)
		}
	}
	sortDiags(kept)
	return kept, nil
}

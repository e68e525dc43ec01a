// Package analyzers holds this repository's lint checks, built on
// internal/analysis. Each analyzer documents the invariant it defends and
// the suppression category that silences it ("//lint:<category>").
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"messengers/internal/analysis"
)

// deterministicPkgs are the packages whose behavior must be a pure
// function of their inputs: everything the simulation engine executes, and
// everything the T1/T2 figures depend on being replayable seed-for-seed.
// internal/core is included because both engines share it — real-engine
// wall-clock use inside it must be explicitly annotated at each site.
// internal/transport is deliberately absent: the TCP engine is allowed to
// look at real clocks.
var deterministicPkgs = map[string]bool{
	"messengers/internal/sim":    true,
	"messengers/internal/lan":    true,
	"messengers/internal/core":   true,
	"messengers/internal/vm":     true,
	"messengers/internal/value":  true,
	"messengers/internal/wire":   true,
	"messengers/internal/faults": true,
}

// wallclockFuncs are the time-package functions that read or schedule off
// the real clock. time.Duration arithmetic and constants stay legal.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true, "Sleep": true,
}

// globalRandFuncs are the math/rand (and v2) package-level functions backed
// by the shared global source. Explicit rand.New(rand.NewSource(seed))
// streams are the sanctioned route.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Uint32": true, "Uint64": true, "Float32": true,
	"Float64": true, "ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
	// v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
	"N": true,
}

// SimDeterminism reports wall-clock reads, global math/rand use, and
// map-order-dependent iteration inside the deterministic packages.
//
// The paper's evaluation (and this repo's figures) rely on the simulation
// engine being bit-reproducible from a seed; Go gives none of that for
// free. Suppress with //lint:wallclock, //lint:rand, or //lint:maporder
// plus a justification — e.g. the real engine's timer plumbing in
// internal/core, or a map range that feeds a sort.
var SimDeterminism = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global rand, and map-order dependence in deterministic packages",
	Run:  runSimDeterminism,
}

func runSimDeterminism(pass *analysis.Pass) error {
	if !deterministicPkgs[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := pass.ObjectOf(n.Sel)
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if wallclockFuncs[obj.Name()] {
						pass.Reportf(n.Pos(), "wallclock",
							"time.%s reads the wall clock in deterministic package %s", obj.Name(), shortPkg(pass.PkgPath))
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[obj.Name()] && isPackageRef(pass, n.X) {
						pass.Reportf(n.Pos(), "rand",
							"global %s.%s is unseeded shared state in deterministic package %s",
							shortPkg(obj.Pkg().Path()), obj.Name(), shortPkg(pass.PkgPath))
					}
				}
			case *ast.RangeStmt:
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "maporder",
						"map iteration order is nondeterministic in package %s", shortPkg(pass.PkgPath))
				}
			}
			return true
		})
	}
	return nil
}

// isPackageRef reports whether e is a reference to a package (rand.Intn)
// rather than a value (r.Intn on a *rand.Rand).
func isPackageRef(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pass.ObjectOf(id).(*types.PkgName)
	return isPkg
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

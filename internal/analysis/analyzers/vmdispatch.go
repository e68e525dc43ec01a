package analyzers

import (
	"go/ast"
	"go/types"

	"messengers/internal/analysis"
)

// vmdispatchAllowed are the packages that may touch the lowered instruction
// stream: the lowering pass that builds it and the dispatch engines that
// execute it. Everyone else programs against Program/Instr — the lowered
// form is derived, never serialized, and its operand meanings shift as
// superinstructions are added, so a use outside these packages is a layering
// leak that would quietly couple wire or daemon code to an encoding with no
// compatibility contract.
var vmdispatchAllowed = map[string]bool{
	"messengers/internal/bytecode": true,
	"messengers/internal/vm":       true,
}

// loweredBytecodePkg is the package whose lowered API is confined.
const loweredBytecodePkg = "messengers/internal/bytecode"

// loweredNames is the lowered-instruction API surface by name; DOp
// constants (DNop, DFLtJz, ...) are matched by their type instead, so the
// set does not chase every new superinstruction.
var loweredNames = map[string]bool{
	"Lowered":      true, // type and Program.Lowered method
	"DInstr":       true,
	"DFunc":        true,
	"DOp":          true,
	"NumDOps":      true,
	"Constituents": true,
}

// VMDispatch enforces the threaded-dispatch layering: the lowered
// instruction API of internal/bytecode (Lowered, DInstr, DFunc, DOp and its
// constants, Program.Lowered, Constituents) must not be referenced outside
// internal/bytecode and internal/vm.
//
// Suppress with //lint:vmdispatch.
var VMDispatch = &analysis.Analyzer{
	Name: "vmdispatch",
	Doc:  "lowered-instruction API confinement",
	Run:  runVMDispatch,
}

// runVMDispatch reports every reference to the lowered API from a package
// outside the allowed set.
func runVMDispatch(pass *analysis.Pass) error {
	if vmdispatchAllowed[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != loweredBytecodePkg {
				return true
			}
			if !isLoweredObj(obj) {
				return true
			}
			pass.Reportf(id.Pos(), "vmdispatch",
				"lowered-instruction internal %s.%s referenced outside internal/vm; program against Program/Instr instead",
				"bytecode", obj.Name())
			return true
		})
	}
	return nil
}

// isLoweredObj reports whether obj belongs to the lowered API: a listed
// name, or any constant/value whose type is bytecode.DOp.
func isLoweredObj(obj types.Object) bool {
	if loweredNames[obj.Name()] {
		return true
	}
	if named, ok := obj.Type().(*types.Named); ok {
		tn := named.Obj()
		if tn.Name() == "DOp" && tn.Pkg() != nil && tn.Pkg().Path() == loweredBytecodePkg {
			return true
		}
	}
	return false
}

package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"messengers/internal/analysis"
)

// DeadCode reports every package-level function, method, type, constant
// and var that no production file uses outside its own declaration; see
// docs/ANALYSIS.md for the roots and for what counts as a use. Suppress
// with //lint:deadcode and a reason.
var DeadCode = &analysis.Analyzer{
	Name:      "deadcode",
	Doc:       "functions, methods, types, constants and package-level vars no non-test file uses",
	RunModule: runDeadCode,
}

// keyOf names a package-level object or a method by package path,
// receiver type and name, whichever types.Object stands for it: the loader
// type-checks a package for its own Load and again as an import. It
// returns "" for anything else.
func keyOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Name() == "_" {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return fn.Pkg().Path() + ":" + named.Origin().Obj().Name() + "." + fn.Name()
			}
			return ""
		}
		obj = fn
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + ":" + obj.Name()
}

// A deadDecl is one declaration the pass may report.
type deadDecl struct {
	key, name, kind string
	pos             token.Pos
	// family is the key of a constant's named type, if it has one: using
	// one constant of the type uses them all.
	family string
}

func runDeadCode(pass *analysis.Pass) error {
	var decls []deadDecl
	used := map[string]bool{}
	for _, lp := range pass.Packages {
		for _, f := range lp.Files {
			for _, decl := range f.Decls {
				owners := collectDecls(lp, decl, &decls)
				// A use inside the declaration itself is not a use.
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if key := keyOf(lp.Info.Uses[id]); key != "" && !owners[key] {
							used[key] = true
						}
					}
					return true
				})
			}
		}
	}
	markImplemented(pass.Packages, used)
	families := map[string]bool{}
	for _, d := range decls {
		if used[d.key] && d.family != "" {
			families[d.family] = true
		}
	}
	for _, d := range decls {
		if !used[d.key] && !families[d.family] {
			pass.Reportf(d.pos, "deadcode", "%s %s is used by no non-test code", d.kind, d.name)
		}
	}
	return nil
}

// collectDecls appends the reportable declarations of one top-level decl
// to decls and returns the keys it owns. A method owns its receiver type
// too, so a type only its own methods mention is unused.
func collectDecls(lp *analysis.LoadedPackage, decl ast.Decl, decls *[]deadDecl) map[string]bool {
	owners := map[string]bool{}
	add := func(id *ast.Ident, kind string) {
		obj := lp.Info.Defs[id]
		key := keyOf(obj)
		owners[key] = true
		if key == "" || lp.PkgPath == "messengers" { // the facade's declarations are roots
			return
		}
		d := deadDecl{key: key, name: key[strings.IndexByte(key, ':')+1:], kind: kind, pos: id.Pos()}
		if named, ok := obj.Type().(*types.Named); ok && kind == "const" {
			d.family = keyOf(named.Obj())
		}
		*decls = append(*decls, d)
	}
	switch decl := decl.(type) {
	case *ast.FuncDecl:
		switch name := decl.Name.Name; {
		case decl.Recv == nil && (name == "init" || name == "main" && lp.Pkg.Name() == "main"): // roots
		case decl.Recv == nil:
			add(decl.Name, "func")
		default:
			if key := keyOf(lp.Info.Defs[decl.Name]); key != "" {
				owners[key[:strings.LastIndexByte(key, '.')]] = true // the receiver type
			}
			if name != "String" && name != "Error" && name != "Format" { // fmt calls these
				add(decl.Name, "method")
			}
		}
	case *ast.GenDecl:
		for _, spec := range decl.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				add(spec.Name, "type")
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					add(id, decl.Tok.String())
				}
			}
		}
	}
	return owners
}

// markImplemented marks a method used when its receiver's method set
// satisfies an interface the module refers to and the method is one of
// that interface's. Methods compare as strings, because each package sees
// the same declaration as a different object.
func markImplemented(pkgs []*analysis.LoadedPackage, used map[string]bool) {
	ifaces := referencedInterfaces(pkgs)
	for _, lp := range pkgs {
		scope := lp.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			methods := map[string]*types.Func{}
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				methods[methodString(fn)] = fn
			}
		ifaces:
			for _, iface := range ifaces {
				for _, m := range iface {
					if methods[m] == nil {
						continue ifaces
					}
				}
				for _, m := range iface {
					used[keyOf(methods[m])] = true
				}
			}
		}
	}
}

// methodString spells a method's name, qualified by its package when
// unexported, and its signature without parameter names.
func methodString(fn *types.Func) string {
	s := fn.Name()
	if !fn.Exported() {
		s = fn.Pkg().Path() + "." + s
	}
	sig := fn.Signature()
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		s += "("
		for i := 0; i < tup.Len(); i++ {
			s += types.TypeString(tup.At(i).Type(), (*types.Package).Path) + ","
		}
		s += ")"
	}
	if sig.Variadic() {
		s += "..."
	}
	return s
}

// referencedInterfaces returns the methods of every non-empty interface
// reachable from the type of an expression in pkgs, type expressions
// included: an interface a value can be converted to through an
// assignment, a call's parameter, a result or a composite literal's field.
func referencedInterfaces(pkgs []*analysis.LoadedPackage) [][]string {
	var out [][]string
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			walk(t.Underlying())
		case *types.Interface:
			var ms []string
			for i := 0; i < t.NumMethods(); i++ {
				ms = append(ms, methodString(t.Method(i)))
				walk(t.Method(i).Type())
			}
			if ms != nil {
				out = append(out, ms)
			}
		case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
			if m, ok := t.(*types.Map); ok {
				walk(m.Key())
			}
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, lp := range pkgs {
		for _, tv := range lp.Info.Types {
			walk(tv.Type)
		}
	}
	return out
}

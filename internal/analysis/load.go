package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// modulePath is the import-path prefix of this repository's packages. The
// loader maps it onto the repo root on disk; everything else resolves from
// GOROOT source (no module cache, no network).
const modulePath = "messengers"

// A Loader type-checks packages from source. One Loader caches imports
// across every package of a driver run.
type Loader struct {
	RepoRoot string
	Fset     *token.FileSet

	ctx     build.Context
	imports map[string]*types.Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(repoRoot string) *Loader {
	ctx := build.Default
	// Cgo files would need a C toolchain pass; every package we analyze or
	// import has pure-Go fallbacks.
	ctx.CgoEnabled = false
	return &Loader{
		RepoRoot: repoRoot,
		Fset:     token.NewFileSet(),
		ctx:      ctx,
		imports:  map[string]*types.Package{},
		loading:  map[string]bool{},
	}
}

// A LoadedPackage is one fully type-checked package ready for analysis.
type LoadedPackage struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Load parses and type-checks the package in dir under the import path
// asPath, with full function bodies and recorded type info. Test files are
// excluded: mlint checks production code.
func (l *Loader) Load(dir, asPath string) (*LoadedPackage, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(asPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", asPath, typeErrs[0])
	}
	return &LoadedPackage{
		PkgPath: asPath,
		Fset:    l.Fset,
		Files:   files,
		Pkg:     pkg,
		Info:    info,
	}, nil
}

// LoadModule loads every package under the repo root in walk order,
// skipping testdata, hidden and vendor-like directories and directories
// without production Go files.
func (l *Loader) LoadModule() ([]*LoadedPackage, error) {
	var pkgs []*LoadedPackage
	err := filepath.WalkDir(l.RepoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.RepoRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil || !slices.ContainsFunc(ents, func(e fs.DirEntry) bool {
			return !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go")
		}) {
			return err
		}
		pkgPath := modulePath
		if path != l.RepoRoot {
			pkgPath += "/" + filepath.ToSlash(strings.TrimPrefix(path, l.RepoRoot+string(filepath.Separator)))
		}
		lp, err := l.Load(path, pkgPath)
		if err != nil {
			return fmt.Errorf("loading %s: %w", pkgPath, err)
		}
		pkgs = append(pkgs, lp)
		return nil
	})
	return pkgs, err
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter resolves import paths for the type checker: repo packages
// from the module directory, everything else from GOROOT source. Imported
// packages are checked without function bodies — only their API matters
// here.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}

	var dir string
	switch {
	case path == modulePath:
		dir = l.RepoRoot
	case strings.HasPrefix(path, modulePath+"/"):
		dir = filepath.Join(l.RepoRoot, filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/")))
	default:
		goroot := l.ctx.GOROOT
		dir = filepath.Join(goroot, "src", filepath.FromSlash(path))
		if _, err := l.ctx.ImportDir(dir, 0); err != nil {
			vdir := filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path))
			if _, verr := l.ctx.ImportDir(vdir, 0); verr != nil {
				return nil, fmt.Errorf("cannot resolve import %q: %v", path, err)
			}
			dir = vdir
		}
	}

	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	var typeErrs []error
	conf := types.Config{
		Importer:         li,
		IgnoreFuncBodies: true,
		// Imported packages only contribute their API; tolerate errors in
		// corners of the stdlib we do not reach (collected, not fatal,
		// unless the package fails to materialize at all).
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if pkg == nil {
		if len(typeErrs) > 0 {
			err = typeErrs[0]
		}
		return nil, fmt.Errorf("importing %q: %v", path, err)
	}
	pkg.MarkComplete()
	l.imports[path] = pkg
	return pkg, nil
}

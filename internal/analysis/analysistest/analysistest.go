// Package analysistest runs an analyzer over a testdata package and checks
// its findings against expectations embedded in the source as comments, in
// the style of golang.org/x/tools' package of the same name:
//
//	m.Counter(fmt.Sprintf("x.%d", i)) // want "string literal"
//
// Each `// want "substr"` demands exactly one finding on that line whose
// message contains substr; findings on lines without a want comment, and
// want comments without a finding, both fail the test. Suppression
// directives (//lint:...) are honored, so the escape hatch itself is
// testable. A testdata directory whose subdirectories hold packages is a
// small module: each subdirectory loads as its own package, and module
// analyzers see them all at once.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"messengers/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

// loader serves every Run, so the standard library is type-checked once.
// Load caches only imports, so a testdata package posing as a real path
// never stands in for it.
var loader *analysis.Loader

// Run loads the package in dir pretending it has import path asPath (or,
// when dir has package subdirectories, each of them under asPath/<name>),
// runs the analyzers, per package and then module-wide, and compares
// diagnostics against // want comments.
func Run(t *testing.T, dir, asPath string, analyzers ...*analysis.Analyzer) { //lint:deadcode test support: the analyzer tests of package analyzers
	t.Helper()
	if loader == nil {
		// Tests run in their package's directory, three levels below the root.
		repoRoot, err := filepath.Abs("../../..")
		if err != nil {
			t.Fatal(err)
		}
		loader = analysis.NewLoader(repoRoot)
	}
	var loaded []*analysis.LoadedPackage
	load := func(dir, path string) {
		lp, err := loader.Load(dir, path)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		loaded = append(loaded, lp)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.IsDir() {
			load(filepath.Join(dir, e.Name()), asPath+"/"+e.Name())
		}
	}
	if len(loaded) == 0 {
		load(dir, asPath)
	}
	diags, err := analysis.Run(loaded, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]string{}
	for _, lp := range loaded {
		for _, f := range lp.Files {
			name := lp.Fset.Position(f.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, lineText := range strings.Split(string(src), "\n") {
				for _, m := range wantRE.FindAllStringSubmatch(lineText, -1) {
					sub := strings.ReplaceAll(m[1], `\"`, `"`)
					k := key{name, i + 1}
					wants[k] = append(wants[k], sub)
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		ws := wants[k]
		matched := -1
		for i, w := range ws {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding at %s:%d: %s [%s]",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message, d.Analyzer)
			continue
		}
		wants[k] = append(ws[:matched], ws[matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("missing finding at %s:%d: want message containing %q",
				filepath.Base(k.file), k.line, w)
		}
	}
}

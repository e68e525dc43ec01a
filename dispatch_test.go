package messengers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
)

// shippedPrograms compiles the MSL the repository ships, deduplicated by
// source: every .msl file (the sample scripts) and every string literal in
// the module's non-test Go files that compile.Compile accepts (apps,
// protocols, examples, commands, benchmark workloads).
func shippedPrograms(t *testing.T) []*bytecode.Program {
	t.Helper()
	seen := map[string]bool{}
	var progs []*bytecode.Program
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".msl") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			p, err := compile.Compile(path, string(src))
			if err != nil {
				return err
			}
			progs = append(progs, p)
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil || seen[src] {
				return true
			}
			seen[src] = true
			if p, err := compile.Compile(path, src); err == nil {
				progs = append(progs, p)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

// dopFamily names the family a direct opcode belongs to: its generic form's
// constituents, with add…mod folded into "arith" and the comparisons into
// "cmp", plus its kind suffix. "loadm+const+arith+storem.ii" is every
// m·c>m.ii increment.
func dopFamily(o bytecode.DOp) string {
	g := o.Generic()
	ops, n := g.Constituents()
	parts := make([]string, n)
	for i, op := range ops[:n] {
		switch {
		case op >= bytecode.OpAdd && op <= bytecode.OpMod:
			parts[i] = "arith"
		case op >= bytecode.OpEq && op <= bytecode.OpGe:
			parts[i] = "cmp"
		default:
			parts[i] = op.String()
		}
	}
	return strings.Join(parts, "+") + strings.TrimPrefix(o.String(), g.String())
}

// TestSuperinstructionsHaveTraffic holds the lowering pass to the rule in
// docs/VM.md: a superinstruction or kind-specialized family exists only if
// a program the repository ships lowers to one of its members. A new family
// lands with the program that uses it, or not at all.
func TestSuperinstructionsHaveTraffic(t *testing.T) {
	progs := shippedPrograms(t)
	scripts := 0
	for _, p := range progs {
		if strings.HasSuffix(p.Name, ".msl") {
			scripts++
		}
	}
	if len(progs) < 10 || scripts == 0 {
		t.Fatalf("found %d shipped MSL programs, %d of them scripts; the walk is broken", len(progs), scripts)
	}
	emitted := map[bytecode.DOp]bool{}
	for _, p := range progs {
		for _, mode := range []bytecode.LowerMode{bytecode.LowerFused, bytecode.LowerKind} {
			for _, f := range p.Lowered(mode).Funcs {
				for _, d := range f.Code {
					emitted[d.Op] = true
				}
			}
		}
	}
	families := map[string][]bytecode.DOp{}
	for o := bytecode.DOp(0); o < bytecode.NumDOps; o++ {
		if _, n := o.Constituents(); n >= 2 || o.Generic() != o {
			fam := dopFamily(o)
			families[fam] = append(families[fam], o)
		}
	}
	var idle []string
	for fam, ops := range families {
		used := false
		for _, o := range ops {
			used = used || emitted[o]
		}
		if !used {
			idle = append(idle, fam)
		}
	}
	sort.Strings(idle)
	if len(idle) > 0 {
		t.Errorf("%d of %d derived-opcode families have no shipped program lowering to them (%d programs walked): %s",
			len(idle), len(families), len(progs), strings.Join(idle, ", "))
	}
}

// TestDispatchCountersSumToSteps: vm.dispatch.threaded and
// vm.dispatch.switch split each segment's step count, so on a metered
// chan-engine run they add up to vm.steps, and a verified program's steps
// run threaded.
func TestDispatchCountersSumToSteps(t *testing.T) {
	reg := NewMetrics()
	sys, err := NewRealSystem(Config{Daemons: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.CompileAndRegister("quick", quickstartScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(0, "quick", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("system did not quiesce")
	}
	steps := reg.CounterValue("vm.steps")
	threaded := reg.CounterValue("vm.dispatch.threaded")
	sw := reg.CounterValue("vm.dispatch.switch")
	if steps == 0 || threaded == 0 || threaded+sw != steps {
		t.Errorf("vm.dispatch.threaded %d + vm.dispatch.switch %d, vm.steps %d", threaded, sw, steps)
	}
}

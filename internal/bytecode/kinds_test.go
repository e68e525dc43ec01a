// External test package: these tests drive the kind-flow verifier through
// the real compiler (compile imports bytecode, so an in-package test would
// cycle) and pin the public contract of the kind metadata — what is
// rejected, what is honestly ⊤, and what StateBound will and will not
// promise.
package bytecode_test

import (
	"errors"
	"sort"
	_ "strings"
	"testing"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
)

func mustCompile(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	prog, err := compile.Compile("kinds", src)
	if err != nil {
		t.Fatalf("compile(%q): %v", src, err)
	}
	return prog
}

// TestKindRejectionTable is the rejection side of the kind lattice: each
// program provably faults on every execution reaching the faulting
// instruction, so Compile (via Validate) must refuse it with ErrIllTyped
// and name the proven kinds in the message.
func TestKindRejectionTable(t *testing.T) {
	const prefix = "msl: compiler emitted unverifiable bytecode: bytecode: <main>@"
	cases := map[string]string{
		// Proven-kind arithmetic and comparison faults.
		`x = "a" - "b";`:        "2 (sub): ill-typed program: operator not defined on strings",
		`x = "a" * 3;`:          "2 (mul): ill-typed program: operator not defined on strings",
		`x = [1, 2] + 1;`:       "4 (add): ill-typed program: arithmetic on array and int",
		`x = -"neg";`:           "1 (neg): ill-typed program: cannot negate proven str",
		`x = 1 < "s";`:          "2 (lt): ill-typed program: cannot compare int with str",
		`x = matrix(2, 2) % 2;`: "4 (mod): ill-typed program: arithmetic on matrix and int",
		// Indexing a proven scalar, and a proven-bad index kind.
		`x = 5[0];`:     "2 (index): ill-typed program: proven int is not indexable",
		`x = [1]["a"];`: "3 (index): ill-typed program: index must be numeric, got proven str",
		// Builtins with modeled signatures.
		`x = sqrt("s");`:       "1 (calln): ill-typed program: sqrt: argument 0 is proven str, needs a numeric",
		`x = matget(1, 0, 0);`: "3 (calln): ill-typed program: matget: want a matrix, got proven int",
		`x = substr(7, 0, 1);`: "3 (calln): ill-typed program: substr of proven int",
		// The fault sits behind a join, but BOTH branches prove str:
		// the join stays exact and the rejection survives the merge.
		`if (n > 0) { m = "a"; } else { m = "b"; }
		 x = m - 1;`: "11 (sub): ill-typed program: operator not defined on strings",
	}
	for src, want := range cases {
		_, err := compile.Compile("kinds", src)
		if err == nil {
			t.Errorf("compile(%q) accepted a provably kind-faulting program", src)
			continue
		}
		if !errors.Is(err, bytecode.ErrIllTyped) {
			t.Errorf("compile(%q) error %q does not wrap ErrIllTyped", src, err)
		}
		if err.Error() != prefix+want {
			t.Errorf("compile(%q) error %q, want %q", src, err, prefix+want)
		}
	}
}

// TestKindAnalysisAcceptsPossibles pins the other half of the contract:
// the analysis rejects proofs, not possibilities. A fault that only might
// happen — because an operand is honestly ⊤ — must stay a runtime error.
func TestKindAnalysisAcceptsPossibles(t *testing.T) {
	accepted := []string{
		// Laundered through an array load: element kinds are not tracked.
		`s = ["abc"][0]; x = s - 1;`,
		// A join that widens to ⊤: one branch int, one str.
		`if (n > 0) { m = 1; } else { m = "s"; }
		 x = m - 1;`,
		// Messenger variables are ⊤ at entry — the injector chooses them.
		// (+ is defined on strings, so ⊤ + str is only a possible fault;
		// contrast `n - "s"`, which is proven: no kind subtracts a str.)
		`x = n + "suffix";`,
		// Function returns are ⊤ (no interprocedural analysis).
		`func f() { return "s"; } x = f() * 2;`,
		// Network variables are ⊤.
		`x = $peer + 1;`,
	}
	for _, src := range accepted {
		if _, err := compile.Compile("kinds", src); err != nil {
			t.Errorf("compile(%q) rejected a merely-possible fault: %v", src, err)
		}
	}
}

// TestKindMetadataQueries exercises the per-PC query surface: totality
// over the whole code space, and a proven exact kind where one exists.
func TestKindMetadataQueries(t *testing.T) {
	prog := mustCompile(t, `
		x = 0.5;
		for (i = 0; i < 4; i++) { x = x * 2.0; }
	`)
	provenInt, provenNum := false, false
	for fi := range prog.Funcs {
		f := &prog.Funcs[fi]
		for pc := range f.Code {
			for slot := 0; slot < prog.MaxStack(fi); slot++ {
				switch prog.SlotKind(fi, pc, slot) {
				case bytecode.KindInt:
					provenInt = true
				case bytecode.KindNum:
					provenNum = true
				}
			}
			for l := 0; l < f.NumLocals; l++ {
				prog.LocalKind(fi, pc, l)
			}
			for slot := -1; slot <= len(prog.VarTable().Names); slot++ {
				prog.VarKind(fi, pc, slot)
			}
		}
	}
	if !provenInt || !provenNum {
		t.Errorf("expected both an int and a num slot proof somewhere (int=%v num=%v)", provenInt, provenNum)
	}
	tracked := prog.VarTable().Names
	sorted := append([]string(nil), tracked...)
	sort.Strings(sorted)
	if want := []string{"i", "x"}; !equalStrings(sorted, want) {
		t.Errorf("VarTable().Names = %v, want %v", tracked, want)
	}
	if k := prog.VarKind(0, 0, len(tracked)); k != bytecode.KindBottom {
		t.Errorf("VarKind past the table = %s, want ⊥", k)
	}
}

// TestStateBound is the derivability table for the static state-size
// bound: which programs get a bound, which honestly refuse, and that the
// bound's arithmetic matches its documented formula.
func TestStateBound(t *testing.T) {
	// scalarWire (9) and snapOverhead (24) from kinds.go, restated here so
	// a silent change to either breaks this pin.
	const scalarWire, snapOverhead = 9, 4 + 4 + 12 + 4

	t.Run("scalar program is boundable", func(t *testing.T) {
		prog := mustCompile(t, `x = 1;`)
		base, inherited, ok := prog.StateBound()
		if !ok {
			t.Fatal("x = 1; must be statically boundable")
		}
		if !equalStrings(inherited, []string{"x"}) {
			t.Errorf("inherited = %v, want [x]", inherited)
		}
		want := int64(snapOverhead + (4 + len("x") + scalarWire) +
			prog.Funcs[0].NumLocals*scalarWire + prog.MaxStack(0)*scalarWire)
		if base != want {
			t.Errorf("base = %d, want %d", base, want)
		}
	})

	t.Run("walker with transient hop strings is boundable", func(t *testing.T) {
		// The hop kwarg is a str on the operand stack mid-statement, but
		// it is consumed by the hop itself: the nav post-state is all
		// scalar, so the transient must not defeat the bound.
		prog := mustCompile(t, `
			k = 0;
			while (k < hops) { k = k + 1; hop(ll = "next"); }
		`)
		base, inherited, ok := prog.StateBound()
		if !ok {
			t.Fatal("scalar walker must be statically boundable")
		}
		sorted := append([]string(nil), inherited...)
		sort.Strings(sorted)
		if want := []string{"hops", "k"}; !equalStrings(sorted, want) {
			t.Errorf("inherited = %v, want %v", inherited, want)
		}
		if base <= snapOverhead {
			t.Errorf("base = %d, want > framing overhead", base)
		}
	})

	refusals := map[string]string{
		`x = array(2);`:                     "aggregate stored to a Messenger variable",
		`x = "abc";`:                        "str stored (concat can grow without bound)",
		`x = $peer;`:                        "top stored (network value unmodeled)",
		`func f(n) { return n; } x = f(1);`: "call frames are unbounded",
		`m = matrix(2, 2); x = m[0];`:       "aggregate stored",
		`a = [1, 2]; a[0] = 3;`:             "setindex can swap elements for larger ones",
	}
	for src, why := range refusals {
		prog := mustCompile(t, src)
		if _, _, ok := prog.StateBound(); ok {
			t.Errorf("StateBound(%q) must refuse: %s", src, why)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

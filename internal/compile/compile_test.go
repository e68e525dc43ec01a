package compile

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"messengers/internal/bytecode"
	"messengers/internal/value"
	"messengers/internal/vm"
)

// refHost is a minimal vm.Host for executing compiled test programs.
type refHost struct {
	node map[string]value.Value
	out  []string
}

func newRefHost() *refHost { return &refHost{node: map[string]value.Value{}} }

func (h *refHost) NodeVar(n string) value.Value       { return h.node[n] }
func (h *refHost) SetNodeVar(n string, v value.Value) { h.node[n] = v }
func (h *refHost) NetVar(string) (value.Value, bool)  { return value.Str("net"), true }
func (h *refHost) Print(s string)                     { h.out = append(h.out, s) }

func run(t *testing.T, src string) *vm.VM {
	t.Helper()
	prog, err := Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := vm.New(prog, nil)
	if _, err := m.Run(newRefHost(), 1<<22); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestConstantInterning(t *testing.T) {
	prog, err := Compile("t", `a = 5; b = 5; c = "x"; d = "x"; e = 5.0;`)
	if err != nil {
		t.Fatal(err)
	}
	// 5, "x", and 5.0 — int and num constants are distinct.
	if len(prog.Consts) != 3 {
		t.Errorf("consts = %v, want 3 interned", prog.Consts)
	}
}

func TestNamePooling(t *testing.T) {
	prog, err := Compile("t", `x = 1; x = x + 1; node.x = x; y = $x;`)
	if err != nil {
		t.Fatal(err)
	}
	// Names are shared across variable spaces: x, y.
	if len(prog.Names) != 2 {
		t.Errorf("names = %v", prog.Names)
	}
}

func TestJumpTargetsWithinBounds(t *testing.T) {
	srcs := []string{
		`if (1) { x = 1; } else { x = 2; }`,
		`while (x < 5) { x = x + 1; if (x == 3) continue; if (x == 4) break; }`,
		`for (i = 0; i < 3; i++) { for (j = 0; j < 3; j++) { if (i == j) continue; } }`,
		`a = 1 && 0 || 2 && 3;`,
		`for (;;) { break; }`,
	}
	for _, src := range srcs {
		prog, err := Compile("t", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for fi := range prog.Funcs {
			code := prog.Funcs[fi].Code
			for pc, ins := range code {
				if ins.Op == bytecode.OpJmp || ins.Op == bytecode.OpJz {
					if ins.A < 0 || int(ins.A) > len(code) {
						t.Errorf("%q: pc %d jumps to %d of %d", src, pc, ins.A, len(code))
					}
				}
			}
		}
	}
}

func TestMainEndsWithEnd(t *testing.T) {
	prog, err := Compile("t", `x = 1;`)
	if err != nil {
		t.Fatal(err)
	}
	code := prog.Funcs[0].Code
	if code[len(code)-1].Op != bytecode.OpEnd {
		t.Errorf("main must end with OpEnd, got %v", code[len(code)-1].Op)
	}
}

func TestFunctionsEndWithImplicitReturn(t *testing.T) {
	prog, err := Compile("t", `func f() { msgr.x = 1; } y = f();`)
	if err != nil {
		t.Fatal(err)
	}
	code := prog.Funcs[1].Code
	if code[len(code)-1].Op != bytecode.OpRet {
		t.Errorf("function must end with OpRet, got %v", code[len(code)-1].Op)
	}
}

func TestLocalsAllocation(t *testing.T) {
	prog, err := Compile("t", `
		func f(a, b) { c = a + b; d = c * 2; return d; }
		x = f(1, 2);
	`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[1]
	if f.NumParams != 2 || f.NumLocals != 4 {
		t.Errorf("params=%d locals=%d, want 2, 4", f.NumParams, f.NumLocals)
	}
}

func TestMustCompilePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic")
		}
	}()
	MustCompile("bad", `x = ;`)
}

// --- differential property test: compiled execution vs direct AST-level
// reference evaluation of randomly generated integer expressions ---

// genExpr builds a random integer expression and its expected value.
// Divisions and modulo use (|rhs|+1) to avoid zero.
func genExpr(r *rand.Rand, depth int) (string, int64) {
	if depth <= 0 || r.Intn(4) == 0 {
		v := int64(r.Intn(201) - 100)
		if v < 0 {
			// Parenthesize negatives so they nest in any operator position.
			return fmt.Sprintf("(0 - %d)", -v), v
		}
		return fmt.Sprintf("%d", v), v
	}
	ls, lv := genExpr(r, depth-1)
	rs, rv := genExpr(r, depth-1)
	switch r.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", ls, rs), lv + rv
	case 1:
		return fmt.Sprintf("(%s - %s)", ls, rs), lv - rv
	case 2:
		return fmt.Sprintf("(%s * %s)", ls, rs), lv * rv
	case 3:
		d := rv
		if d < 0 {
			d = -d
		}
		d++
		return fmt.Sprintf("(%s / %d)", ls, d), lv / d
	case 4:
		d := rv
		if d < 0 {
			d = -d
		}
		d++
		return fmt.Sprintf("(%s %% %d)", ls, d), lv % d
	default:
		cmp := int64(0)
		if lv < rv {
			cmp = 1
		}
		return fmt.Sprintf("(%s < %s)", ls, rs), cmp
	}
}

func TestPropCompiledExpressionsMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, want := genExpr(r, 5)
		prog, err := Compile("prop", "print("+src+");")
		if err != nil {
			t.Logf("compile %q: %v", src, err)
			return false
		}
		h := newRefHost()
		if _, err := vm.New(prog, nil).Run(h, 1<<22); err != nil {
			t.Logf("run %q: %v", src, err)
			return false
		}
		got := h.out[len(h.out)-1]
		if got != fmt.Sprint(want) {
			t.Logf("%s = %s, want %d", src, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropRandomControlFlowTerminates compiles and runs generated loop
// programs, checking the compiler never emits diverging jump patterns.
func TestPropRandomControlFlowTerminates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 1
		step := r.Intn(3) + 1
		src := fmt.Sprintf(`
			count = 0;
			for (i = 0; i < %d; i += 0) {
				i = i + %d;
				if (i %% 2 == 0) { count += 2; continue; }
				count++;
			}
		`, n, step)
		// Reference computation.
		want := int64(0)
		for i := 0; i < n; {
			i += step
			if i%2 == 0 {
				want += 2
			} else {
				want++
			}
		}
		m := run(t, src)
		return m.Vars()["count"].AsInt() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropCompilerOutputAlwaysValidates: every program the compiler emits
// must pass the bytecode verifier (the invariant daemons rely on).
func TestPropCompilerOutputAlwaysValidates(t *testing.T) {
	srcs := []string{
		`x = 1;`,
		`func f(a, b) { return a + b; } x = f(1, 2);`,
		`for (i = 0; i < 10; i++) { if (i % 2) continue; node.x = i; }`,
		`hop(ll = "a", "b"); create(ALL); delete(ln = *);`,
		`a = [1, [2, 3]]; a[1][0] = 9; s = $last; sched_abs(1.5);`,
		`while (1) { break; } x = len("s") && 1 || 0;`,
	}
	for _, src := range srcs {
		prog, err := Compile("v", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if err := prog.Validate(); err != nil {
			t.Errorf("%q: compiler emitted invalid code: %v", src, err)
		}
	}
	// And for random generated expressions.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, _ := genExpr(r, 4)
		prog, err := Compile("v", "x = "+src+";")
		if err != nil {
			return false
		}
		return prog.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAssignmentExpressions(t *testing.T) {
	m := run(t, `
		a = (b = 5) + 1;
		arr = [0, 0, 0];
		c = (arr[1] = 9) + 1;
		d = (node.k = 7) * 2;
		arr[2] += 5;
		arr[0] -= 3;
	`)
	checks := map[string]int64{"a": 6, "b": 5, "c": 10, "d": 14}
	for name, want := range checks {
		if got := m.Vars()[name].AsInt(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	arr := m.Vars()["arr"]
	if e, _ := arr.Index(1); e.AsInt() != 9 {
		t.Errorf("arr[1] = %v", e)
	}
	if e, _ := arr.Index(2); e.AsInt() != 5 {
		t.Errorf("arr[2] = %v", e)
	}
	if e, _ := arr.Index(0); e.AsInt() != -3 {
		t.Errorf("arr[0] = %v", e)
	}
}

func TestCompoundAssignOnNodeIndex(t *testing.T) {
	prog, err := Compile("t", `
		node.v = [10, 20];
		node.v[1] += 2;
		x = node.v[1];
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, nil)
	if _, err := m.Run(newRefHost(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := m.Vars()["x"].AsInt(); got != 22 {
		t.Errorf("x = %d", got)
	}
}

func TestCompileErrorPaths(t *testing.T) {
	bad := map[string]string{
		`func f() { return q; } x = f();`: "undefined local",
		`x = sched_dlt();`:                "takes 1 argument",
		`x = M_sched_time_abs(1, 2);`:     "takes 1 argument",
	}
	for src, want := range bad {
		_, err := Compile("t", src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Compile(%q) = %v, want %q", src, err, want)
		}
	}
}

func TestStringConcatChains(t *testing.T) {
	m := run(t, `s = "a" + 1 + "b" + 2.5 + "c";`)
	if got := m.Vars()["s"].AsStr(); got != "a1b2.5c" {
		t.Errorf("s = %q", got)
	}
}

func TestDeeplyNestedExpressions(t *testing.T) {
	var b strings.Builder
	b.WriteString("x = ")
	for i := 0; i < 200; i++ {
		b.WriteString("(1 + ")
	}
	b.WriteString("0")
	for i := 0; i < 200; i++ {
		b.WriteString(")")
	}
	b.WriteString(";")
	m := run(t, b.String())
	if got := m.Vars()["x"].AsInt(); got != 200 {
		t.Errorf("x = %d", got)
	}
}

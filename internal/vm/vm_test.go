package vm

import (
	"errors"
	"strings"
	"testing"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/value"
)

// testHost is a standalone Host for VM tests: one node-variable map and
// fixed network variables.
type testHost struct {
	node   map[string]value.Value
	net    map[string]value.Value
	output []string
}

func newTestHost() *testHost {
	return &testHost{
		node: map[string]value.Value{},
		net: map[string]value.Value{
			"address": value.Str("d0"),
			"last":    value.Str("link0"),
			"node":    value.Str("init"),
		},
	}
}

func (h *testHost) NodeVar(name string) value.Value { return h.node[name] }
func (h *testHost) SetNodeVar(name string, v value.Value) {
	h.node[name] = v
}
func (h *testHost) NetVar(name string) (value.Value, bool) {
	v, ok := h.net[name]
	return v, ok
}
func (h *testHost) Print(s string) { h.output = append(h.output, s) }

// runScript compiles src and runs it to the first pause, failing the test
// on compile or runtime errors.
func runScript(t *testing.T, src string) (*VM, Result, *testHost) {
	t.Helper()
	prog, err := compile.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := New(prog, nil)
	h := newTestHost()
	res, err := m.Run(h, 1_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, res, h
}

func TestArithmeticAndVariables(t *testing.T) {
	m, res, _ := runScript(t, `
		a = 2 + 3 * 4;
		b = (2 + 3) * 4;
		c = 7 / 2;
		d = 7.0 / 2;
		e = 7 % 3;
		f = -a;
		g = 1.5 + 1;
		s = "x" + "y" + 1;
	`)
	if res.Pause != PauseEnd {
		t.Fatalf("pause = %v", res.Pause)
	}
	tests := map[string]value.Value{
		"a": value.Int(14),
		"b": value.Int(20),
		"c": value.Int(3),
		"d": value.Num(3.5),
		"e": value.Int(1),
		"f": value.Int(-14),
		"g": value.Num(2.5),
		"s": value.Str("xy1"),
	}
	for name, want := range tests {
		if got := m.Vars()[name]; !got.Equal(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	m, _, _ := runScript(t, `
		a = 1 < 2;
		b = 2 <= 1;
		c = "abc" == "abc";
		d = 1 != 1.0;
		e = 1 && "yes";
		f = 0 || "";
		g = !0;
		h = 3 > 2 && 2 > 3 || 1;
	`)
	want := map[string]int64{"a": 1, "b": 0, "c": 1, "d": 0, "e": 1, "f": 0, "g": 1, "h": 1}
	for name, w := range want {
		if got := m.Vars()[name].AsInt(); got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
}

func TestShortCircuitSkipsSideEffects(t *testing.T) {
	// f() would fail as an unknown native if executed; short-circuit must
	// skip it.
	m, res, _ := runScript(t, `
		x = 0 && boom();
		y = 1 || boom();
	`)
	if res.Pause != PauseEnd {
		t.Fatalf("pause = %v (short-circuit failed, tried to call boom)", res.Pause)
	}
	if m.Vars()["x"].AsInt() != 0 || m.Vars()["y"].AsInt() != 1 {
		t.Errorf("x=%v y=%v", m.Vars()["x"], m.Vars()["y"])
	}
}

func TestControlFlow(t *testing.T) {
	m, _, _ := runScript(t, `
		total = 0;
		for (i = 0; i < 10; i++) {
			if (i % 2 == 0) continue;
			if (i == 9) break;
			total += i;
		}
		n = 0;
		while (n < 5) n = n + 1;
		neg = 10;
		neg -= 3;
	`)
	if got := m.Vars()["total"].AsInt(); got != 1+3+5+7 {
		t.Errorf("total = %d, want 16", got)
	}
	if got := m.Vars()["n"].AsInt(); got != 5 {
		t.Errorf("n = %d", got)
	}
	if got := m.Vars()["neg"].AsInt(); got != 7 {
		t.Errorf("neg = %d", got)
	}
}

func TestAssignmentAsExpression(t *testing.T) {
	m, _, _ := runScript(t, `
		count = 0;
		while ((x = next()) != nil) { count += x; }
	`)
	_ = m
	// next() is an unknown native: the first call pauses. Re-check with a
	// self-contained variant instead:
	m2, _, _ := runScript(t, `
		a = (b = 5) + 1;
		arr = [0, 0];
		c = (arr[1] = 9) + 1;
	`)
	if m2.Vars()["a"].AsInt() != 6 || m2.Vars()["b"].AsInt() != 5 {
		t.Errorf("a=%v b=%v", m2.Vars()["a"], m2.Vars()["b"])
	}
	if m2.Vars()["c"].AsInt() != 10 {
		t.Errorf("c=%v", m2.Vars()["c"])
	}
	if e, _ := m2.Vars()["arr"].Index(1); e.AsInt() != 9 {
		t.Errorf("arr[1]=%v", e)
	}
}

func TestArraysAndIndexing(t *testing.T) {
	m, _, _ := runScript(t, `
		a = [1, 2, [3, 4]];
		a[0] = 10;
		a[2][1] = 40;
		x = a[0] + a[2][1];
		a[1] += 5;
		b = array(3, 0);
		b[2] = 9;
		n = len(a);
	`)
	if got := m.Vars()["x"].AsInt(); got != 50 {
		t.Errorf("x = %d", got)
	}
	if e, _ := m.Vars()["a"].Index(1); e.AsInt() != 7 {
		t.Errorf("a[1] = %v", e)
	}
	if e, _ := m.Vars()["b"].Index(2); e.AsInt() != 9 {
		t.Errorf("b[2] = %v", e)
	}
	if got := m.Vars()["n"].AsInt(); got != 3 {
		t.Errorf("n = %d", got)
	}
}

func TestNodeAndNetworkVariables(t *testing.T) {
	m, _, h := runScript(t, `
		node.counter = 1;
		node.counter = node.counter + 41;
		here = $address;
		via = $last;
	`)
	if got := h.node["counter"].AsInt(); got != 42 {
		t.Errorf("node.counter = %d", got)
	}
	if got := m.Vars()["here"].AsStr(); got != "d0" {
		t.Errorf("here = %q", got)
	}
	if got := m.Vars()["via"].AsStr(); got != "link0" {
		t.Errorf("via = %q", got)
	}
}

func TestUserFunctions(t *testing.T) {
	m, _, _ := runScript(t, `
		func fib(n) {
			if (n < 2) return n;
			return fib(n - 1) + fib(n - 2);
		}
		func touch() { msgr.touched = 1; return nil; }
		r = fib(10);
		touch();
	`)
	if got := m.Vars()["r"].AsInt(); got != 55 {
		t.Errorf("fib(10) = %d", got)
	}
	if got := m.Vars()["touched"].AsInt(); got != 1 {
		t.Errorf("touched = %v (msgr.x inside function failed)", m.Vars()["touched"])
	}
}

func TestFunctionLocalsAreNotMessengerVars(t *testing.T) {
	m, _, _ := runScript(t, `
		func f(a) { temp = a * 2; return temp; }
		r = f(21);
	`)
	if got := m.Vars()["r"].AsInt(); got != 42 {
		t.Errorf("r = %d", got)
	}
	if !m.Vars()["temp"].IsNil() {
		t.Error("function local leaked into Messenger variables")
	}
}

func TestBuiltins(t *testing.T) {
	m, _, h := runScript(t, `
		a = len("hello");
		b = str(42) + "!";
		c = int("17") + int(2.9);
		d = num("2.5");
		e = abs(-3) + abs(-1.5);
		f = min(3, 1, 2);
		g = max(3, 1, 2);
		h = floor(2.7) + ceil(2.1);
		i = sqrt(16.0);
		j = pow(2, 10);
		k = substr("messenger", 0, 4);
		print("value:", a);
	`)
	checks := map[string]value.Value{
		"a": value.Int(5),
		"b": value.Str("42!"),
		"c": value.Int(19),
		"d": value.Num(2.5),
		"e": value.Num(4.5),
		"f": value.Int(1),
		"g": value.Int(3),
		"h": value.Num(5),
		"i": value.Num(4),
		"j": value.Num(1024),
		"k": value.Str("mess"),
	}
	for name, want := range checks {
		if got := m.Vars()[name]; !got.Equal(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(h.output) != 1 || h.output[0] != "value: 5" {
		t.Errorf("print output = %q", h.output)
	}
}

func TestMatrixBuiltins(t *testing.T) {
	m, _, _ := runScript(t, `
		mm = matrix(2, 3);
		matset(mm, 1, 2, 7.5);
		v = matget(mm, 1, 2);
		r = rows(mm);
		c = cols(mm);
	`)
	if m.Vars()["v"].AsNum() != 7.5 || m.Vars()["r"].AsInt() != 2 || m.Vars()["c"].AsInt() != 3 {
		t.Errorf("v=%v r=%v c=%v", m.Vars()["v"], m.Vars()["r"], m.Vars()["c"])
	}
}

func TestCopyIsDeep(t *testing.T) {
	m, _, _ := runScript(t, `
		a = [1, 2];
		b = copy(a);
		a[0] = 99;
		x = b[0];
	`)
	if got := m.Vars()["x"].AsInt(); got != 1 {
		t.Errorf("copy not deep: x = %d", got)
	}
}

func TestHopPause(t *testing.T) {
	m, res, _ := runScript(t, `
		steps = 1;
		hop(ll = "row", ldir = -);
		steps = 2;
	`)
	if res.Pause != PauseHop {
		t.Fatalf("pause = %v", res.Pause)
	}
	if len(res.Arms) != 1 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	arm := res.Arms[0]
	if arm.LN.AsStr() != "*" || arm.LL.AsStr() != "row" || arm.LDir.AsStr() != "-" {
		t.Errorf("arm = %+v", arm)
	}
	if m.Vars()["steps"].AsInt() != 1 {
		t.Error("statements after hop should not have run")
	}
	// Resuming (as a clone at the destination would) continues after the
	// hop instruction.
	res2, err := m.Run(newTestHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pause != PauseEnd || m.Vars()["steps"].AsInt() != 2 {
		t.Errorf("after resume: pause=%v steps=%v", res2.Pause, m.Vars()["steps"])
	}
}

func TestCreatePauseWithAllAndDefaults(t *testing.T) {
	_, res, _ := runScript(t, `create(ALL);`)
	if res.Pause != PauseCreate || !res.All {
		t.Fatalf("res = %+v", res)
	}
	arm := res.Arms[0]
	if arm.LN.AsStr() != "~" || arm.LL.AsStr() != "~" || arm.DN.AsStr() != "*" {
		t.Errorf("defaults wrong: %+v", arm)
	}
}

func TestCreateMultiArm(t *testing.T) {
	_, res, _ := runScript(t, `create(ln = "a", "b"; ll = "x", "y");`)
	if len(res.Arms) != 2 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	if res.Arms[0].LN.AsStr() != "a" || res.Arms[0].LL.AsStr() != "x" {
		t.Errorf("arm 0 = %+v", res.Arms[0])
	}
	if res.Arms[1].LN.AsStr() != "b" || res.Arms[1].LL.AsStr() != "y" {
		t.Errorf("arm 1 = %+v", res.Arms[1])
	}
}

func TestDeletePause(t *testing.T) {
	_, res, _ := runScript(t, `delete(ll = "corridor");`)
	if res.Pause != PauseDelete {
		t.Fatalf("pause = %v", res.Pause)
	}
}

func TestNativePauseAndResume(t *testing.T) {
	m, res, _ := runScript(t, `r = work(2, 3);`)
	if res.Pause != PauseNative || res.Native != "work" {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Args) != 2 || res.Args[0].AsInt() != 2 || res.Args[1].AsInt() != 3 {
		t.Fatalf("args = %v", res.Args)
	}
	m.PushResult(value.Int(6))
	res2, err := m.Run(newTestHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pause != PauseEnd || m.Vars()["r"].AsInt() != 6 {
		t.Errorf("r = %v", m.Vars()["r"])
	}
}

func TestSchedPauses(t *testing.T) {
	m, res, _ := runScript(t, `
		sched_abs(2.0);
		sched_dlt(0.5);
		x = 1;
	`)
	if res.Pause != PauseSchedAbs || res.Time != 2.0 {
		t.Fatalf("res = %+v", res)
	}
	h := newTestHost()
	res2, err := m.Run(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pause != PauseSchedDlt || res2.Time != 0.5 {
		t.Fatalf("res2 = %+v", res2)
	}
	res3, err := m.Run(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Pause != PauseEnd || m.Vars()["x"].AsInt() != 1 {
		t.Errorf("final: %+v x=%v", res3, m.Vars()["x"])
	}
}

func TestEndStatement(t *testing.T) {
	m, res, _ := runScript(t, `
		x = 1;
		end;
		x = 2;
	`)
	if res.Pause != PauseEnd || m.Vars()["x"].AsInt() != 1 {
		t.Errorf("end did not terminate: %v", m.Vars()["x"])
	}
}

func TestReturnInMainTerminates(t *testing.T) {
	m, res, _ := runScript(t, `
		x = 1;
		return;
		x = 2;
	`)
	if res.Pause != PauseEnd || m.Vars()["x"].AsInt() != 1 {
		t.Errorf("return did not terminate main: %v", m.Vars()["x"])
	}
}

func TestRuntimeErrors(t *testing.T) {
	// Kind faults the verifier can prove never compile anymore (see
	// TestStaticKindErrors); here each faulting operand is laundered
	// through an array index — ⊤ to the kind analysis — so the dynamic
	// guards stay covered.
	cases := map[string]string{
		`x = 1 / 0;`:                      "division by zero",
		`x = 1 % 0;`:                      "modulo by zero",
		`a = ["a"][0]; x = a - ["b"][0];`: "operator not defined on strings",
		`x = [[1]][0] + 1;`:               "arithmetic on",
		`x = -["s"][0];`:                  "cannot negate",
		`x = [1, 2][5];`:                  "out of range",
		`x = [1][["a"][0]];`:              "index must be numeric",
		`x = 1 < ["s"][0];`:               "cannot compare",
		`x = $bogus;`:                     "unknown network variable",
		`x = matget([1][0], 0, 0);`:       "want a matrix",
		`x = int("zz");`:                  "cannot parse",
		`x = sqrt(["s"][0]);`:             "sqrt of",
		`x = substr("ab", 3, 9);`:         "out of range",
	}
	for src, want := range cases {
		prog, err := compile.Compile("err", src)
		if err != nil {
			t.Errorf("compile(%q): %v", src, err)
			continue
		}
		m := New(prog, nil)
		_, err = m.Run(newTestHost(), 0)
		if err == nil {
			t.Errorf("Run(%q) should fail", src)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run(%q) error = %q, want substring %q", src, err, want)
		}
	}
}

// TestStaticKindErrors pins the compile-time half of the split above: the
// same faults with statically proven operand kinds are rejected by the
// kind-flow verifier before a VM ever exists, tagged ErrIllTyped.
func TestStaticKindErrors(t *testing.T) {
	cases := map[string]string{
		`x = "a" - "b";`:       "operator not defined on strings",
		`x = [1] + 1;`:         "arithmetic on",
		`x = -"s";`:            "cannot negate",
		`x = [1]["a"];`:        "index must be numeric",
		`x = 1 < "s";`:         "cannot compare",
		`x = len();`:           "want 1 arguments",
		`x = matget(1, 0, 0);`: "want a matrix",
		`x = sqrt("s");`:       "proven str",
	}
	for src, want := range cases {
		_, err := compile.Compile("err", src)
		if err == nil {
			t.Errorf("compile(%q) should fail statically", src)
			continue
		}
		if !errors.Is(err, bytecode.ErrIllTyped) {
			t.Errorf("compile(%q) error %q is not ErrIllTyped", src, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("compile(%q) error = %q, want substring %q", src, err, want)
		}
	}
}

func TestInstructionBudget(t *testing.T) {
	prog, err := compile.Compile("loop", `for (;;) { x = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog, nil)
	_, err = m.Run(newTestHost(), 1000)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v, want budget exceeded", err)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	prog, err := compile.Compile("rec", `
		func f(n) { return f(n + 1); }
		x = f(0);
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog, nil)
	_, err = m.Run(newTestHost(), 0)
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Errorf("err = %v, want call depth exceeded", err)
	}
}

func TestStepCounting(t *testing.T) {
	_, res, _ := runScript(t, `x = 1; y = 2;`)
	// const+store, const+store, end = 5 instructions.
	if res.Steps != 5 {
		t.Errorf("steps = %d, want 5", res.Steps)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		`func f() { return x; } y = f();`: "undefined local",
		`func f(a) { } x = f(1, 2);`:      "takes 1 arguments",
		`x = sched_abs(1, 2);`:            "takes 1 argument",
		`break;`:                          "break outside loop",
		`continue;`:                       "continue outside loop",
	}
	for src, want := range cases {
		_, err := compile.Compile("bad", src)
		if err == nil {
			t.Errorf("Compile(%q) should fail", src)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Compile(%q) error = %q, want %q", src, err, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	prog, err := compile.Compile("clone", `
		a = [1, 2];
		hop(ll = "x");
		a[0] = a[0] + 100;
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog, nil)
	h := newTestHost()
	if _, err := m.Run(h, 0); err != nil {
		t.Fatal(err)
	}
	c1, c2 := m.Clone(), m.Clone()
	if _, err := c1.Run(h, 0); err != nil {
		t.Fatal(err)
	}
	if e, _ := c1.Vars()["a"].Index(0); e.AsInt() != 101 {
		t.Errorf("clone 1 a[0] = %v", e)
	}
	if e, _ := c2.Vars()["a"].Index(0); e.AsInt() != 1 {
		t.Errorf("clone 2 saw clone 1's mutation: %v", e)
	}
}

func TestSnapshotRestoreMidExecution(t *testing.T) {
	prog, err := compile.Compile("snap", `
		func helper(n) {
			msgr.before = n;
			hop(ll = "go");
			return n * 2;
		}
		acc = [5];
		r = helper(21);
		acc[0] = acc[0] + r;
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog, nil)
	h := newTestHost()
	res, err := m.Run(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pause != PauseHop {
		t.Fatalf("pause = %v", res.Pause)
	}

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SnapshotSize(); got != len(snap) {
		t.Errorf("SnapshotSize = %d, snapshot = %d bytes", got, len(snap))
	}
	m2, err := Restore(prog, snap)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pause != PauseEnd {
		t.Fatalf("restored run pause = %v", res2.Pause)
	}
	if e, _ := m2.Vars()["acc"].Index(0); e.AsInt() != 47 {
		t.Errorf("acc[0] = %v, want 47 (5 + 42)", e)
	}
	if m2.Vars()["before"].AsInt() != 21 {
		t.Errorf("before = %v", m2.Vars()["before"])
	}
}

func TestRestoreErrors(t *testing.T) {
	prog := compile.MustCompile("p", `x = 1;`)
	cases := [][]byte{
		nil,
		{0, 0, 0, 0},             // vars only
		{0, 0, 0, 0, 1, 0, 0, 0}, // frame header truncated
	}
	for i, buf := range cases {
		if _, err := Restore(prog, buf); err == nil {
			t.Errorf("case %d: Restore should fail", i)
		}
	}
	// A snapshot from a different program must be rejected when its pc or
	// function index is out of range.
	big := compile.MustCompile("big", `
		func f(a) { hop(ll = "x"); return a; }
		y = f(1);
	`)
	m := New(big, nil)
	if _, err := m.Run(newTestHost(), 0); err != nil {
		t.Fatal(err)
	}
	crossSnap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(prog, crossSnap); err == nil {
		t.Error("cross-program restore should fail validation")
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	prog := compile.MustCompile("roundtrip", `
		func f(a, b) { return a + b; }
		x = f(1, 2.5);
		node.y = "str";
		hop(ll = $last);
	`)
	enc := prog.Encode()
	dec, err := bytecode.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hash() != prog.Hash() {
		t.Error("hash mismatch after round trip")
	}
	if dec.Name != prog.Name || dec.Source != prog.Source {
		t.Errorf("metadata mismatch: %q %q", dec.Name, dec.Source)
	}
	// The decoded program must execute identically.
	m := New(dec, nil)
	res, err := m.Run(newTestHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pause != PauseHop || m.Vars()["x"].AsNum() != 3.5 {
		t.Errorf("decoded program: %v x=%v", res.Pause, m.Vars()["x"])
	}
}

func TestDecodeCorruptProgram(t *testing.T) {
	prog := compile.MustCompile("c", `x = 1;`)
	enc := prog.Encode()
	for _, cut := range []int{0, 3, len(enc) / 2} {
		if _, err := bytecode.Decode(enc[:cut]); err == nil {
			t.Errorf("Decode(truncated %d) should fail", cut)
		}
	}
}

func TestDisassembleMentionsKeyOps(t *testing.T) {
	prog := compile.MustCompile("d", `
		func f(a) { return a; }
		x = f(1);
		node.y = x;
		v = $last;
		create(ALL);
		hop(ll = "row");
	`)
	asm := prog.Disassemble()
	for _, want := range []string{"callf f", "storen y", "loadnet last", "create arms=1 ALL", "hop arms=1", "<main>"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

// TestUnverifiedProgramsAreRefused: the VM runs only what the verifier
// proved, so a hand-built program that never passed Validate is refused at
// both ways in, New and RestoreInto.
func TestUnverifiedProgramsAreRefused(t *testing.T) {
	p := &bytecode.Program{Name: "raw", Funcs: []bytecode.FuncInfo{{Name: "<main>", Code: []bytecode.Instr{{Op: bytecode.OpEnd}}}}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New accepted an unverified program")
			}
		}()
		New(p, nil)
	}()
	if _, err := RestoreInto(nil, p, nil); err == nil || !strings.Contains(err.Error(), "unverified") {
		t.Errorf("RestoreInto of an unverified program: err = %v", err)
	}
}

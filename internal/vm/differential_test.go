package vm

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/value"
)

// The switch loop is the semantic oracle; these tests pin the threaded and
// fused engines to it observation-for-observation. A "trace" renders every
// externally visible effect of running a program to completion — per-segment
// pause reasons, step counts, nav arms, snapshot bytes, final variables,
// host output, step-meter charges, and per-opcode profile counts — into one
// string, and the engines must produce identical strings.

// diffModes are the pinned dispatch engines under differential test.
var diffModes = []Dispatch{DispatchSwitch, DispatchThreaded, DispatchFused, DispatchSpecialized}

func sortedEnv(env map[string]value.Value) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, env[k])
	}
	return b.String()
}

// dispatchTrace runs prog from scratch under one engine and renders the
// complete observable behavior. budget > 0 attaches a step meter with that
// allowance, exercising the threaded loop's refuse-and-tail path when a
// superinstruction would overrun it.
func dispatchTrace(prog *bytecode.Program, mode Dispatch, budget int64) string {
	m := New(prog, nil)
	m.SetDispatch(mode)
	prof := &Profile{}
	m.SetProfile(prof)
	var meter *meterRec
	if budget > 0 {
		meter = &meterRec{allowance: budget}
		m.SetMeter(meter)
	}
	h := newTestHost()
	var b strings.Builder
	for seg := 0; seg < 64; seg++ {
		res, err := m.Run(h, 4096)
		if err != nil {
			fmt.Fprintf(&b, "err=%v\n", err)
			break
		}
		fmt.Fprintf(&b, "pause=%v steps=%d all=%v native=%q time=%v arms=%v args=%v\n",
			res.Pause, res.Steps, res.All, res.Native, res.Time, res.Arms, res.Args)
		switch res.Pause {
		case PauseHop, PauseCreate, PauseDelete:
			// The serialized form a daemon would put on the wire must be
			// byte-identical regardless of which engine paused the VM.
			snap, serr := m.Snapshot()
			if serr != nil {
				fmt.Fprintf(&b, "snapshot-err=%v\n", serr)
			} else {
				fmt.Fprintf(&b, "snapshot=%x\n", snap)
				if _, rerr := Restore(prog, snap); rerr != nil {
					fmt.Fprintf(&b, "restore-err=%v\n", rerr)
				}
			}
		case PauseNative:
			// Deterministic stand-in for the daemon's native dispatch.
			m.PushResult(value.Int(int64(len(res.Native))))
		case PauseEnd:
			seg = 64 // terminate
		}
		if res.Pause == PauseEnd {
			break
		}
	}
	fmt.Fprintf(&b, "vars=%s\n", sortedEnv(m.Vars()))
	fmt.Fprintf(&b, "node=%s output=%q\n", sortedEnv(h.node), h.output)
	if meter != nil {
		fmt.Fprintf(&b, "charged=%d left=%d\n", meter.charged, meter.Allowance())
	}
	// The step meter and profile count SOURCE instructions: a fused
	// superinstruction charges each of its constituents, so these arrays
	// must match the switch loop's exactly.
	for op := 0; op < NumOps; op++ {
		if prof.Counts[op] != 0 {
			fmt.Fprintf(&b, "op[%s]=%d\n", OpName(op), prof.Counts[op])
		}
	}
	return b.String()
}

// assertDispatchAgree fails the test unless threaded and fused dispatch
// reproduce the switch loop's trace exactly.
func assertDispatchAgree(t *testing.T, prog *bytecode.Program, budget int64) {
	t.Helper()
	oracle := dispatchTrace(prog, DispatchSwitch, budget)
	for _, mode := range diffModes[1:] {
		if got := dispatchTrace(prog, mode, budget); got != oracle {
			t.Errorf("dispatch %v diverges from switch (budget=%d):\n--- switch ---\n%s--- %v ---\n%s",
				mode, budget, oracle, mode, got)
		}
	}
}

// diffPrograms is the deterministic differential corpus: each entry leans
// on a specific engine fast path or superinstruction family, plus the
// faults that force mid-superinstruction bailout.
var diffPrograms = []struct {
	name string
	src  string
}{
	// Quad idioms: mvar counting loop (mc<jz + m+c>m), local-variable
	// loop in a function (loadl+loadl, lt+jz + l+c>l), and mvar-mvar
	// compare (mm<jz).
	{"loop_mvar", `for (i = 0; i < 10; i++) { s = s + i; }`},
	{"loop_local", `func f(n) { t = 0; for (k = 0; k < n; k++) { t = t + 2; } return t; }
		r = f(9);`},
	{"loop_mm", `lim = 5; for (i = 0; i < lim; i++) { s = s + 1; }`},
	// The local-slot forms scripts/fib.msl lowers to, every operator: loop
	// heads and increments over a parameter (generic), increments over a
	// proven int (.ii), arithmetic stored into a local, loadl+const.
	{"local_ops", `func g(n, m) {
			t = n;
			while (t < 50) { t = t * 3; }
			while (t <= 60) { t = t + 1; }
			while (t > 40) { t = t - 7; }
			while (t >= 30) { t = t / 2; }
			t = t % 7;
			u = t + m; u = u - m; u = u * m; u = u / m; u = u % m;
			k = 5; k = k + 1; k = k - 1; k = k * 3; k = k / 2; k = k % 2;
			return (t - 1) * u + k;
		}
		r = g(7, 5);`},
	{"cmp_fault_local", `func h(s) { for (i = s; i < 3; i++) { x = 1; } return 0; }
		r = h("abc");`},
	// Every ordered loop head, slot against slot and against a constant,
	// and every increment operator, over proven ints (.ii under LowerKind).
	{"loop_heads", `lim = 3;
		for (i = 0; i <= lim; i++) { t = 1; }
		for (i = lim; i > 0; i = i - 1) { t = t * 2; }
		for (i = lim; i >= 0; i = i - 1) { t = t + 1; }
		i = 0; while (i <= 5) { i = i + 2; }
		j = 1; while (lim > j) { j = j * 2; }
		j = 0; while (lim >= j) { j = j + 1; }
		k = 100; while (k > 3) { k = k / 2; }
		k = 17; while (k >= 3) { k = k % 3; }`},
	// Compare-and-branch pairs (the compare's left operand is computed,
	// so no quad matches), generic and over proven ints.
	{"cmp_pairs", `a = 4; b = 5; n = 0;
		if (a + 1 == b) { n = n + 1; }
		if (a + 1 != b) { n = n + 2; }
		if (a + 1 < b) { n = n + 4; }
		if (a + 1 <= b) { n = n + 8; }
		if (a + 1 > b) { n = n + 16; }
		if (a + 1 >= b) { n = n + 32; }`},
	// Arithmetic stored straight into a Messenger variable, over proven
	// ints and proven nums.
	{"arith_store", `a = 7; b = 3; f = 2.5; g = 0.5;
		x = a + b; x = a - b; x = a * b; x = a / b; x = a % b;
		y = f + g; y = f - g; y = f * g; y = f / g; y = f % g;`},
	// Plain arithmetic whose result feeds more arithmetic: int/int,
	// num/num and int/num operands, and const+arith pairs over ints (which
	// stay generic) and nums.
	{"arith_kinds", `a = 7; b = 3; f = 2.5; g = 0.5;
		i = (a + b) * 2; i = (a - b) * 2; i = (a * b) - 1; i = (a / b) + 1; i = (a % b) + 1;
		i = (a + b) / 2; i = (a + b) % 4;
		y = (f + g) + 1.0; y = (f - g) - 1.0; y = (f * g) * 2.0; y = (f / g) / 2.0; y = (f % g) % 2.0;
		z = (a + f) * 1.0; z = (a - f) * 1.0; z = (a * f) * 1.0; z = (a / f) * 1.0; z = (a % f) * 1.0;`},
	// Float promotion inside the fast paths.
	{"loop_float", `x = 0.5; for (i = 0; i < 4; i++) { x = x * 1.5 + i; }`},
	// Faults inside fused sequences: div/mod by zero must abort at the
	// same source pc with the same charge under every engine.
	{"div_zero", `i = 5; z = 0; for (k = 0; k < 3; k++) { i = i / z; }`},
	{"mod_zero_local", `func g() { a = 1; b = 0; for (k = 0; k < 2; k++) { a = a % b; } return a; }
		x = g();`},
	// Type fault in a compare quad: string < int errors mid-quad.
	// The string reaches the compare through an array index (⊤ to the
	// kind verifier), so the program still compiles and faults at runtime.
	{"cmp_fault", `s = ["abc"][0]; for (i = s; i < 3; i++) { x = 1; }`},
	// Nil coercion and string concat take the slow arith path.
	{"nil_coerce", `for (i = 0; i < 3; i++) { u = u + 1; v = v + "x"; }`},
	// Pauses inside loops: hop, sched, native, node/net variables.
	{"hop_loop", `for (i = 0; i < 3; i++) { hop(ll = $last); }`},
	{"sched_loop", `for (i = 0; i < 2; i++) { sched_dlt(1.5); }`},
	{"node_vars", `for (i = 0; i < 3; i++) { node.c = node.c + 1; } print("c " + node.c);`},
	// Aggregates: matrix and array builtins between fused regions.
	{"matrix", `m = matrix(3, 3); for (i = 0; i < 3; i++) { matset(m, i, i, i * 2); }
		t = 0; for (i = 0; i < 3; i++) { t = t + matget(m, i, i); }`},
	// Deep calls: frame flatten/unflatten across engines.
	{"recursion", `func rec(n) { if (n < 1) { return 0; } return n + rec(n - 1); }
		total = rec(20);`},
	// Equality superinstructions and unary ops.
	{"eq_chain", `a = 1; b = 1.0; c = "s";
		for (i = 0; i < 4; i++) { if (a == b) { x = x + 1; } if (c != "t") { y = y + 1; } }
		n = -a; z = !c;`},
}

// TestDispatchDifferential runs the corpus under every engine at several
// meter budgets. Budget 7 lands mid-loop so superinstructions must refuse
// and tail into the switch loop; 0 means unmetered. The corpus cannot pass
// vacuously: each non-switch mode must run its first segment at least
// partly threaded, and the corpus's fused and kind streams together must
// hold every derived opcode, so no handler goes unchecked.
func TestDispatchDifferential(t *testing.T) {
	emitted := map[bytecode.DOp]bool{}
	for _, tc := range diffPrograms {
		prog, err := compile.Compile(tc.name, tc.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		for _, lm := range []bytecode.LowerMode{bytecode.LowerFused, bytecode.LowerKind} {
			for _, f := range prog.Lowered(lm).Funcs {
				for _, d := range f.Code {
					emitted[d.Op] = true
				}
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range diffModes[1:] {
				m := New(prog, nil)
				m.SetDispatch(mode)
				if _, err := m.Run(newTestHost(), 4096); err == nil && m.ThreadedSteps() == 0 {
					t.Errorf("%v: first segment ran no step threaded", mode)
				}
			}
			for _, budget := range []int64{0, 7, 23, 4096} {
				assertDispatchAgree(t, prog, budget)
			}
		})
	}
	for o := bytecode.DOp(0); o < bytecode.NumDOps; o++ {
		if _, n := o.Constituents(); (n >= 2 || o.Generic() != o) && !emitted[o] {
			t.Errorf("no corpus program lowers to %v", o)
		}
	}
}

// TestDispatchDifferentialResumeFromSnapshot restores a hop-paused snapshot
// and finishes it under each engine: restored state must behave like the
// original regardless of which engine produced or consumes it.
func TestDispatchDifferentialResumeFromSnapshot(t *testing.T) {
	prog, err := compile.Compile("resume", `
		for (i = 0; i < 4; i++) { acc = acc + i * i; hop(ll = $last); }
		done = acc;`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Pause once under the fused engine, snapshot, then finish the
	// restored VM under each engine and compare final variables.
	m := New(prog, nil)
	m.SetDispatch(DispatchFused)
	h := newTestHost()
	res, err := m.Run(h, 4096)
	if err != nil || res.Pause != PauseHop {
		t.Fatalf("first segment: res=%+v err=%v", res, err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var want string
	for _, mode := range diffModes {
		r, err := Restore(prog, snap)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		r.SetDispatch(mode)
		for seg := 0; seg < 16; seg++ {
			res, err := r.Run(h, 4096)
			if err != nil {
				t.Fatalf("%v: run: %v", mode, err)
			}
			if res.Pause == PauseEnd {
				break
			}
		}
		got := sortedEnv(r.Vars())
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%v: restored run ended with %q, switch oracle %q", mode, got, want)
		}
		if r.Vars()["done"].AsInt() != 0+1+4+9 {
			t.Errorf("%v: done=%v", mode, r.Vars()["done"])
		}
	}
}

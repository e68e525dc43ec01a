package bench

import (
	"fmt"

	"messengers/internal/apps"
	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/lan"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// RunA1CopyAblation quantifies §2.1's copy-avoidance claim: rerun the
// Fig. 7 configuration with the MESSENGERS state transfer charged at
// PVM-style rates (a user-level pack copy at the sender plus an unpack copy
// and daemon routing copy at the receiver).
func RunA1CopyAblation(cm *lan.CostModel, size, grid int, procs []int) (*Table, error) {
	withCopies := cm.Clone()
	withCopies.MsgrSendPerByte = cm.PVMPackPerByte + cm.PVMRoutePerByte
	withCopies.MsgrRecvPerByte = cm.PVMUnpackPerByte + cm.PVMRoutePerByte

	t := &Table{
		Title:   fmt.Sprintf("A1: copy avoidance (MESSENGERS state transfer charged at PVM copy rates), Mandelbrot %dx%d grid %dx%d", size, size, grid, grid),
		Columns: []string{"workload", "zero-copy transfer", "PVM-style copies", "slowdown"},
	}
	for _, p := range procs {
		params := apps.PaperMandelParams(size, grid, p)
		base, err := apps.MandelMessengers(cm, params)
		if err != nil {
			return nil, err
		}
		copies, err := apps.MandelMessengers(withCopies, params)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("mandel P=%d", p), secs(base.Elapsed), secs(copies.Elapsed),
			ratio(copies.Elapsed, base.Elapsed),
		})
	}
	// The claim bites hardest where Messengers carry large data blocks:
	// the matmul rotation at big block sizes.
	for _, s := range []int{200, 500} {
		params := apps.MatmulParams{M: 2, S: s, Host: lan.SPARC110, Seed: 1, SkipArithmetic: true}
		base, err := apps.MatmulMessengers(cm, params)
		if err != nil {
			return nil, err
		}
		copies, err := apps.MatmulMessengers(withCopies, params)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("matmul 2x2 s=%d", s), secs(base.Elapsed), secs(copies.Elapsed),
			ratio(copies.Elapsed, base.Elapsed),
		})
	}
	return t, nil
}

// mslBlockMultiply multiplies node.A and node.B into node.C entirely in
// interpreted MSL (A3: the cost of staying in bytecode instead of calling a
// native-mode function).
const mslBlockMultiply = `
	a = node.A;
	b = node.B;
	c = node.C;
	n = rows(a);
	for (i = 0; i < n; i++) {
		for (j = 0; j < n; j++) {
			sum = 0.0;
			for (k = 0; k < n; k++) {
				sum = sum + matget(a, i, k) * matget(b, k, j);
			}
			matset(c, i, j, sum);
		}
	}
`

// RunA3InterpreterOverhead measures the interpreted-vs-native gap for an
// s x s block multiply executed by a Messenger on one simulated host.
func RunA3InterpreterOverhead(cm *lan.CostModel, sizes []int) (*Table, error) {
	t := &Table{
		Title:   "A3: interpreter overhead, s x s block multiply by one Messenger",
		Columns: []string{"s", "native-mode", "interpreted MSL", "slowdown"},
	}
	for _, s := range sizes {
		native, err := a3Run(cm, s, false)
		if err != nil {
			return nil, err
		}
		interp, err := a3Run(cm, s, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s), secs(native), secs(interp), ratio(interp, native),
		})
	}
	return t, nil
}

func a3Run(cm *lan.CostModel, s int, interpreted bool) (sim.Time, error) {
	k := sim.New()
	cluster := lan.NewCluster(k, cm, 1, lan.SPARC110)
	sys := core.NewSystem(core.NewSimEngine(cluster), core.FullMesh(1))
	sys.RegisterNative("block_multiply_native", func(ctx *core.NativeCtx, _ []value.Value) (value.Value, error) {
		ctx.Charge(sim.Time(float64(s*s*s) * float64(cm.MacCost(s, ctx.HostSpec()))))
		return value.Nil(), nil
	})
	src := mslBlockMultiply
	if !interpreted {
		src = `x = block_multiply_native();`
	}
	prog, err := compile.Compile("a3", src)
	if err != nil {
		return 0, err
	}
	sys.Register(prog)
	init := sys.Daemon(0).Store().Init()
	mk := func() value.Value { return value.Matrix(value.NewMat(s, s)) }
	init.Vars["A"], init.Vars["B"], init.Vars["C"] = mk(), mk(), mk()
	if err := sys.Inject(0, "a3", nil); err != nil {
		return 0, err
	}
	elapsed := k.Run()
	if errs := sys.Errors(); len(errs) > 0 {
		return 0, errs[0]
	}
	return elapsed, nil
}

// RunA4CodeCarrying compares the shared-code registry (the paper's
// shared-file-system optimization: only a hash travels with a Messenger)
// against shipping the bytecode on every hop.
func RunA4CodeCarrying(cm *lan.CostModel, size, grid, procs int) (*Table, error) {
	carrying := cm.Clone()
	carrying.MsgrCodeCached = false

	params := apps.PaperMandelParams(size, grid, procs)
	base, err := apps.MandelMessengers(cm, params)
	if err != nil {
		return nil, err
	}
	carried, err := apps.MandelMessengers(carrying, params)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("A4: code carrying, Mandelbrot %dx%d grid %dx%d P=%d", size, size, grid, grid, procs),
		Columns: []string{"mode", "time", "bus bytes", "slowdown"},
	}
	t.Rows = append(t.Rows,
		[]string{"shared registry (hash only)", secs(base.Elapsed), fmt.Sprintf("%d", base.Obs.CounterValue("bus.bytes")), "1.00"},
		[]string{"bytecode on every hop", secs(carried.Elapsed), fmt.Sprintf("%d", carried.Obs.CounterValue("bus.bytes")), ratio(carried.Elapsed, base.Elapsed)},
	)
	return t, nil
}

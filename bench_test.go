package messengers

// One benchmark per table and figure of the paper's evaluation (see the
// per-experiment index in DESIGN.md §3), plus the A1-A4 ablations. Each
// benchmark runs the corresponding experiment on the simulated cluster and
// reports the headline quantity of that figure as custom metrics
// (simulated seconds, speedups, crossover block sizes), so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's results in one pass. Benchmarks use trimmed
// sweep axes to stay fast; `go run ./cmd/figures` runs the full axes and
// writes every series to experiments/.

import (
	"testing"

	"messengers/internal/bench"
	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/lan"
	"messengers/internal/mandel"
	"messengers/internal/matmul"
	"messengers/internal/value"
	"messengers/internal/vm"
)

func compileBench(name, src string) (*bytecode.Program, error) {
	return compile.Compile(name, src)
}

// discardHost is a vm.Host with no node context, for microbenchmarks.
type discardHost struct{}

func (discardHost) NodeVar(string) value.Value        { return value.Nil() }
func (discardHost) SetNodeVar(string, value.Value)    {}
func (discardHost) NetVar(string) (value.Value, bool) { return value.Nil(), true }
func (discardHost) Print(string)                      {}

func benchMandelFigure(b *testing.B, sweep bench.MandelSweep) {
	cm := lan.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		fig, err := bench.RunMandelFigure(cm, sweep)
		if err != nil {
			b.Fatal(err)
		}
		last := len(sweep.Procs) - 1
		lastGrid := len(sweep.Grids) - 1
		b.ReportMetric(fig.Seq.Seconds(), "seq-sim-s")
		b.ReportMetric(fig.Msgr[0][last].Seconds(), "msgr32-sim-s")
		b.ReportMetric(fig.PVM[0][last].Seconds(), "pvm32-sim-s")
		b.ReportMetric(float64(fig.PVM[0][last])/float64(fig.Msgr[0][last]), "M/PVM@32-coarse")
		b.ReportMetric(float64(fig.Seq)/float64(fig.Msgr[lastGrid][last]), "speedup@32-fine")
	}
}

// BenchmarkFig4Mandel320 regenerates Figure 4 (Mandelbrot 320x320).
func BenchmarkFig4Mandel320(b *testing.B) {
	benchMandelFigure(b, bench.Fig4Sweep(true))
}

// BenchmarkFig5Mandel640 regenerates Figure 5 (Mandelbrot 640x640).
func BenchmarkFig5Mandel640(b *testing.B) {
	benchMandelFigure(b, bench.Fig5Sweep(true))
}

// BenchmarkFig6Mandel1280 regenerates Figure 6 (Mandelbrot 1280x1280).
func BenchmarkFig6Mandel1280(b *testing.B) {
	benchMandelFigure(b, bench.Fig6Sweep(true))
}

// BenchmarkFig7MandelBest regenerates Figure 7: the case most favorable to
// MESSENGERS (1280x1280, coarsest 8x8 grid).
func BenchmarkFig7MandelBest(b *testing.B) {
	cm := lan.DefaultCostModel()
	sweep := bench.Fig7Sweep(true)
	for i := 0; i < b.N; i++ {
		fig, err := bench.RunMandelFigure(cm, sweep)
		if err != nil {
			b.Fatal(err)
		}
		last := len(sweep.Procs) - 1
		b.ReportMetric(fig.Msgr[0][last].Seconds(), "msgr32-sim-s")
		b.ReportMetric(fig.PVM[0][last].Seconds(), "pvm32-sim-s")
		b.ReportMetric(float64(fig.PVM[0][last])/float64(fig.Msgr[0][last]), "M/PVM@32")
		b.ReportMetric(float64(fig.Seq)/float64(fig.Msgr[0][last]), "speedup@32")
	}
}

func benchMatmulFigure(b *testing.B, sweep bench.MatmulSweep, speedupBlock int) {
	cm := lan.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		fig, err := bench.RunMatmulFigure(cm, sweep)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(fig.Crossover()), "crossover-block")
		if ob, on, ok := fig.SpeedupAt(speedupBlock); ok {
			b.ReportMetric(ob, "speedup-vs-block")
			b.ReportMetric(on, "speedup-vs-naive")
		}
	}
}

// BenchmarkFig12aMatmul2x2 regenerates Figure 12(a): block matrix multiply
// on the 2x2 grid of 110 MHz workstations.
func BenchmarkFig12aMatmul2x2(b *testing.B) {
	benchMatmulFigure(b, bench.Fig12aSweep(true), 500)
}

// BenchmarkFig12bMatmul3x3 regenerates Figure 12(b): the 3x3 grid of
// 170 MHz workstations on the fast segment.
func BenchmarkFig12bMatmul3x3(b *testing.B) {
	benchMatmulFigure(b, bench.Fig12bSweep(true), 500)
}

// BenchmarkT1SeqBlockVsNaive regenerates the §3.2 sequential claim: the
// block-partitioned multiply beats the naive triple loop at n=1500.
func BenchmarkT1SeqBlockVsNaive(b *testing.B) {
	cm := lan.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		fig, err := bench.RunMatmulFigure(cm, bench.MatmulSweep{
			Name: "T1", M: 3, Host: lan.SPARC110, BlockSizes: []int{500},
		})
		if err != nil {
			b.Fatal(err)
		}
		gain := float64(fig.SeqNaive[0])/float64(fig.SeqBlock[0]) - 1
		b.ReportMetric(gain*100, "block-gain-%")
	}
}

// BenchmarkT2MatmulSpeedups regenerates §3.2.2's speedup claims (3.7/4.5 on
// 4 procs at n=1000; 5.8/6.7 on 9 procs at n=1500).
func BenchmarkT2MatmulSpeedups(b *testing.B) {
	cm := lan.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunT2(cm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT3CodeSize regenerates the programming-style comparison: lines
// of the runnable MESSENGERS scripts vs their message-passing equivalents.
func BenchmarkT3CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3 := bench.RunT3()
		if len(t3.Rows) != 4 {
			b.Fatal("T3 malformed")
		}
	}
}

// BenchmarkA1CopyAblation charges MESSENGERS hops with PVM-style copies.
func BenchmarkA1CopyAblation(b *testing.B) {
	cm := lan.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunA1CopyAblation(cm, 320, 8, []int{8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3InterpreterOverhead compares bytecode vs native-mode kernels.
func BenchmarkA3InterpreterOverhead(b *testing.B) {
	cm := lan.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunA3InterpreterOverhead(cm, []int{8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4CodeCarrying compares the shared script registry against
// carrying bytecode on every hop.
func BenchmarkA4CodeCarrying(b *testing.B) {
	cm := lan.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunA4CodeCarrying(cm, 320, 8, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks of the substrates themselves ---

// BenchmarkVMInterpreter measures raw bytecode interpretation throughput
// (~60k instructions per iteration).
func BenchmarkVMInterpreter(b *testing.B) {
	prog, err := compileBench("loop", `
		total = 0;
		for (i = 0; i < 10000; i++) { total = total + i * 2 - 1; }
	`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		m := vm.New(prog, nil)
		res, err := m.Run(discardHost{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "instrs/op")
}

// BenchmarkRealHopLatency measures a round trip between two concurrent
// daemons on the real (goroutine) runtime.
func BenchmarkRealHopLatency(b *testing.B) {
	sys, err := NewRealSystem(Config{Daemons: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	err = sys.CompileAndRegister("pingpong", `
		create(ALL);
		for (i = 0; i < hops; i++) { hop(ll = $last); }
	`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = sys.Inject(0, "pingpong", map[string]Value{"hops": IntValue(int64(2 * b.N))})
	if err != nil {
		b.Fatal(err)
	}
	sys.Wait()
	b.StopTimer()
	if errs := sys.Errors(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
}

// BenchmarkSnapshotRestore measures Messenger state serialization, the hot
// path of every remote hop.
func BenchmarkSnapshotRestore(b *testing.B) {
	mt := value.NewMat(64, 64)
	prog, err := compileBench("snap", `
		blk = payload;
		hop(ll = "x");
		y = 1;
	`)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(prog, map[string]value.Value{"payload": value.Matrix(mt)})
	if _, err := m.Run(discardHost{}, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := vm.Restore(prog, snap); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(snap)))
	}
}

// BenchmarkMandelKernel measures the real pixel kernel: mandel.Escape over
// the pixels of a block, summed as ComputeBlock charges them. It calls the
// kernel itself because ComputeBlock keeps a table per image, and from the
// second round over these 16 blocks on it would be timed reading that. The
// table is also why BenchmarkFig4Mandel320 and friends now time the
// simulator, which is what they are named for.
func BenchmarkMandelKernel(b *testing.B) {
	const size, maxIter = 256, 256
	reg := mandel.PaperRegion
	dx, dy := (reg.XMax-reg.XMin)/size, (reg.YMax-reg.YMin)/size
	blocks := mandel.Blocks(size, size, 4)
	b.ResetTimer()
	var iters int64
	for i := 0; i < b.N; i++ {
		blk := blocks[i%len(blocks)]
		for y := blk.Y0; y < blk.Y0+blk.H; y++ {
			ci := reg.YMin + (float64(y)+0.5)*dy
			for x := blk.X0; x < blk.X0+blk.W; x++ {
				n := mandel.Escape(reg.XMin+(float64(x)+0.5)*dx, ci, maxIter)
				if n < maxIter {
					n++
				}
				iters += int64(n)
			}
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkMatmulKernels measures the real block multiply-accumulate.
func BenchmarkMatmulKernels(b *testing.B) {
	a, bb := matmul.Random(128, 1), matmul.Random(128, 2)
	c := value.NewMat(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmul.AddMul(c, a, bb)
	}
	b.SetBytes(int64(3 * 8 * 128 * 128))
}

// BenchmarkTraceOverhead measures the cost the observability hooks add to a
// fixed simulated workload: "off" runs with a nil tracer and nil registry
// (the no-op fast path every production run takes), "on" records a full
// trace and metrics. The off case must track BenchmarkFig4Mandel320-era
// numbers — the hooks compile to a nil check when disabled.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		for i := 0; i < b.N; i++ {
			tr := NewTracer()
			var reg *Metrics
			cfg := Config{Daemons: 4}
			if traced {
				reg = NewMetrics()
				cfg.Trace, cfg.Metrics = tr, reg
			}
			sys, err := NewSimSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			err = sys.CompileAndRegister("work", `
				create(ALL);
				hop(ll = $last);
				for (k = 0; k < 50; k++) {
					node.acc = node.acc + k;
					hop(ll = $last);
				}
			`)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Inject(0, "work", nil); err != nil {
				b.Fatal(err)
			}
			sys.RunSim()
			if errs := sys.Errors(); len(errs) > 0 {
				b.Fatal(errs[0])
			}
			if traced && tr.Len() == 0 {
				b.Fatal("traced run recorded nothing")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

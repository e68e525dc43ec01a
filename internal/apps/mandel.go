// Package apps contains the paper's two evaluation applications — the
// Mandelbrot manager/worker computation (§3.1) and block matrix
// multiplication (§3.2) — each implemented three ways, exactly as in the
// paper: with MESSENGERS (navigational scripts), with the PVM baseline
// (message passing), and sequentially.
//
// All distributed variants run on the simulated cluster so the benchmark
// harness can reproduce the paper's figures; the results they produce are
// bit-identical to the sequential versions, which the test suite checks.
package apps

import (
	"fmt"

	"messengers/internal/core"
	"messengers/internal/faults"
	"messengers/internal/lan"
	"messengers/internal/mandel"
	"messengers/internal/obs"
	"messengers/internal/pvm"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// MandelParams describes one Mandelbrot experiment configuration.
type MandelParams struct {
	Width, Height int
	// Grid divides the image into Grid x Grid blocks (8, 16, 32 in the
	// paper).
	Grid int
	// Workers is the number of worker processors (1..32 in the paper).
	Workers int
	// MaxIter is the color count (512 in the paper).
	MaxIter int
	Region  mandel.Region
	// Trace, when non-nil, receives the run's events: one track per
	// daemon/host plus the shared-bus track, stamped with simulated time.
	Trace *obs.Tracer
	// Faults, when non-nil, injects the plan's faults into the MESSENGERS
	// run and enables messenger-level recovery. The run must still produce
	// a complete image (every block deposited), though blocks recomputed
	// after a crash may be deposited more than once.
	Faults *faults.Plan
	// DistributedGVT selects the ring-reduction GVT protocol for the
	// MESSENGERS run (the differential tests compare its committed GVT
	// sequence against the default coordinator's).
	DistributedGVT bool
}

// PaperMandelParams returns the paper's configuration for a given image
// size, grid, and processor count.
func PaperMandelParams(size, grid, workers int) MandelParams {
	return MandelParams{
		Width: size, Height: size, Grid: grid, Workers: workers,
		MaxIter: mandel.PaperColors, Region: mandel.PaperRegion,
	}
}

// MandelResult is the outcome of one run.
type MandelResult struct {
	// Elapsed is the simulated makespan.
	Elapsed sim.Time
	// Checksum identifies the computed image (must agree across
	// implementations).
	Checksum uint64
	// Image is the assembled image.
	Image *mandel.Image
	// Obs is the run's metrics registry — the single source of truth for
	// traffic and occupancy counters: bus.msgs, bus.bytes, bus.busy_ns,
	// host.<i>.busy_ns, pvm.drops, mandel.deposits, and (MESSENGERS runs)
	// the msgr.*/vm.*/gvt.* counters. Nil for the sequential baseline.
	Obs *obs.Metrics
	// GVTCommits is the sequence of GVT values committed during a
	// MESSENGERS run, in commit order (nil for PVM/sequential runs).
	GVTCommits []float64
}

// MsgrMandelScript is the paper's Figure 3 program in MSL. The single
// deviation from the listing is clearing the Messenger's result variable
// after depositing it, so the next task-fetch hop does not carry the old
// block back out (the deposit consumed it).
const MsgrMandelScript = `
	create(ALL);
	hop(ll = $last);
	while ((task = next_task()) != nil) {
		hop(ll = $last);
		res = compute(task);
		hop(ll = $last);
		deposit(task, res);
		res = nil;
	}
`

// MandelMessengers runs the MESSENGERS implementation on a simulated
// cluster of p.Workers+1 hosts: the central node (task pool and image) on
// daemon 0 and one worker node per remaining daemon, created by the Fig. 3
// script itself with create(ALL).
func MandelMessengers(cm *lan.CostModel, p MandelParams) (*MandelResult, error) {
	if p.Workers < 1 {
		return nil, fmt.Errorf("apps: mandel needs at least 1 worker")
	}
	k := sim.New()
	n := p.Workers + 1
	cluster := lan.NewCluster(k, cm, n, lan.SPARC110)
	metrics := obs.NewMetrics()
	cluster.Observe(p.Trace, metrics)
	opts := []core.Option{core.WithTracer(p.Trace), core.WithMetrics(metrics)}
	if p.DistributedGVT {
		opts = append(opts, core.WithDistributedGVT())
	}
	if p.Faults != nil {
		if err := p.Faults.Validate(n); err != nil {
			return nil, err
		}
		opts = append(opts, core.WithRecovery(core.RecoveryConfig{}))
	}
	sys := core.NewSystem(core.NewSimEngine(cluster), core.Star(n), opts...)
	if p.Faults != nil {
		inj := faults.NewInjector(p.Faults, metrics, p.Trace)
		cluster.SetFaultHook(inj.Decide)
		faults.Schedule(p.Faults, sys, func(at int64, fn func()) { k.At(sim.Time(at), fn) }, true)
	}

	blocks := mandel.Blocks(p.Width, p.Height, p.Grid)
	img := mandel.NewImage(p.Width, p.Height)
	var deposits int64
	covered := make(map[int]bool, len(blocks))

	sys.RegisterNative("next_task", func(ctx *core.NativeCtx, _ []value.Value) (value.Value, error) {
		ctx.Charge(ctx.Model().CallFixed)
		next := ctx.NodeVar("next").AsInt()
		if next >= int64(len(blocks)) {
			return value.Nil(), nil
		}
		ctx.SetNodeVar("next", value.Int(next+1))
		return value.Int(next), nil
	})
	sys.RegisterNative("compute", func(ctx *core.NativeCtx, args []value.Value) (value.Value, error) {
		b := blocks[args[0].AsInt()]
		pix, iters := mandel.ComputeBlock(p.Region, p.Width, p.Height, b, p.MaxIter)
		ctx.Charge(ctx.Model().MandelCost(iters, int64(b.W*b.H), ctx.HostSpec()))
		return value.Bytes(pix), nil
	})
	sys.RegisterNative("deposit", func(ctx *core.NativeCtx, args []value.Value) (value.Value, error) {
		b := blocks[args[0].AsInt()]
		data := args[1].AsBytes()
		if err := img.SetBlock(b, data); err != nil {
			return value.Nil(), err
		}
		// Installing the block is one memory copy at the central node.
		ctx.Charge(sim.Time(len(data)) * ctx.Model().MemPerByte)
		deposits++
		covered[int(args[0].AsInt())] = true
		return value.Nil(), nil
	})

	if err := registerAndInject(sys, "mandel_worker", MsgrMandelScript, 0); err != nil {
		return nil, err
	}
	elapsed := k.Run()
	if errs := sys.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("apps: mandel messengers: %v", errs[0])
	}
	if p.Faults == nil && deposits != int64(len(blocks)) {
		return nil, fmt.Errorf("apps: mandel messengers deposited %d of %d blocks", deposits, len(blocks))
	}
	// Under injected faults, crashed work is re-executed from snapshots, so
	// duplicate deposits are legal — but every block must still land.
	if len(covered) != len(blocks) {
		return nil, fmt.Errorf("apps: mandel messengers covered %d of %d blocks", len(covered), len(blocks))
	}
	sys.FlushVMProfiles()
	metrics.Counter("mandel.deposits").Add(deposits)
	return &MandelResult{
		Elapsed:    elapsed,
		Checksum:   img.Checksum(),
		Image:      img,
		Obs:        metrics,
		GVTCommits: sys.CommitLog(),
	}, nil
}

func registerAndInject(sys *core.System, name, src string, daemon int) error {
	prog, err := compileScript(name, src)
	if err != nil {
		return err
	}
	sys.Register(prog)
	return sys.Inject(daemon, name, nil)
}

// MandelPVM runs the paper's Figure 2 manager/worker program under the PVM
// baseline: the manager on host 0 spawns one worker per remaining host,
// hands out blocks dynamically, and assembles the image from the returned
// pixel data.
func MandelPVM(cm *lan.CostModel, p MandelParams) (*MandelResult, error) {
	if p.Workers < 1 {
		return nil, fmt.Errorf("apps: mandel needs at least 1 worker")
	}
	const (
		tagTask   = 1
		tagResult = 2
	)
	k := sim.New()
	n := p.Workers + 1
	cluster := lan.NewCluster(k, cm, n, lan.SPARC110)
	metrics := obs.NewMetrics()
	cluster.Observe(p.Trace, metrics)
	m := pvm.NewSimMachine(cluster)
	m.Observe(p.Trace, metrics)

	blocks := mandel.Blocks(p.Width, p.Height, p.Grid)
	img := mandel.NewImage(p.Width, p.Height)
	var deposits int64
	var runErr error

	worker := func(w *pvm.Proc) {
		for {
			b := w.Recv(w.Parent(), tagTask)
			task := w.UpkInt(b)
			blk := blocks[task]
			pix, iters := mandel.ComputeBlock(p.Region, p.Width, p.Height, blk, p.MaxIter)
			w.Compute(cm.MandelCost(iters, int64(blk.W*blk.H), lan.SPARC110))
			w.InitSend()
			w.PkInt(task)
			w.PkBytes(pix)
			w.Send(w.Parent(), tagResult)
		}
	}

	m.SpawnAt("manager", 0, func(mgr *pvm.Proc) {
		workers := make([]pvm.TID, p.Workers)
		for i := range workers {
			workers[i] = mgr.Spawn("worker", i+1, worker)
		}
		next := 0
		sendTask := func(dst pvm.TID) {
			mgr.InitSend()
			mgr.PkInt(int64(next))
			mgr.Send(dst, tagTask)
			next++
		}
		for _, w := range workers {
			if next >= len(blocks) {
				break
			}
			sendTask(w)
		}
		outstanding := next
		for outstanding > 0 {
			b := mgr.Recv(pvm.AnySource, tagResult)
			task := mgr.UpkInt(b)
			pix := mgr.UpkBytes(b)
			if err := img.SetBlock(blocks[task], pix); err != nil {
				runErr = err
				return
			}
			mgr.Compute(sim.Time(len(pix)) * cm.MemPerByte) // deposit copy
			deposits++
			if next < len(blocks) {
				sendTask(b.Sender())
			} else {
				outstanding--
				mgr.Kill(b.Sender())
			}
		}
	})

	elapsed := k.Run()
	k.Shutdown()
	if errs := m.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("apps: mandel pvm: %v", errs[0])
	}
	if runErr != nil {
		return nil, runErr
	}
	if deposits != int64(len(blocks)) {
		return nil, fmt.Errorf("apps: mandel pvm deposited %d of %d blocks", deposits, len(blocks))
	}
	metrics.Counter("mandel.deposits").Add(deposits)
	return &MandelResult{
		Elapsed:  elapsed,
		Checksum: img.Checksum(),
		Image:    img,
		Obs:      metrics,
	}, nil
}

// MandelSequential runs the sequential C baseline on one simulated host.
func MandelSequential(cm *lan.CostModel, p MandelParams) *MandelResult {
	img, iters := mandel.ComputeImage(p.Region, p.Width, p.Height, p.MaxIter)
	elapsed := cm.ScaleFor(lan.SPARC110, cm.MandelCost(iters, int64(p.Width*p.Height), lan.SPARC110))
	return &MandelResult{
		Elapsed:  elapsed,
		Checksum: img.Checksum(),
		Image:    img,
	}
}

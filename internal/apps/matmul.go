package apps

import (
	"fmt"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/lan"
	"messengers/internal/matmul"
	"messengers/internal/obs"
	"messengers/internal/pvm"
	"messengers/internal/sim"
	"messengers/internal/value"
)

func compileScript(name, src string) (*bytecode.Program, error) {
	return compile.Compile(name, src)
}

// MatmulParams describes one block-matrix-multiplication experiment.
type MatmulParams struct {
	// M is the grid dimension: M x M blocks on M x M processors (2 or 3
	// in the paper).
	M int
	// S is the block size; the matrices are N x N with N = M*S.
	S int
	// Host selects the workstation model (the paper used 110 MHz machines
	// for the 2x2 grid and 170 MHz for the 3x3 grid).
	Host lan.HostSpec
	// Seed makes the input matrices reproducible.
	Seed int64
	// SkipArithmetic runs the full protocol and charges all data movement;
	// values are neither generated nor copied. The simulated cost depends
	// only on block sizes, so one zero S x S block serves read-only as every
	// node's A, B and C, no multiply runs and no N x N result is assembled.
	// The PVM workers pack and unpack blocks by shape (pvm.PkMatShape), so
	// no block is copied into or out of a message and none is allocated to
	// receive one. Timing results and charged counts are identical; use it
	// for large parameter sweeps.
	SkipArithmetic bool
	// Trace, when non-nil, receives the run's events (one track per
	// daemon/host plus the bus track, simulated-time timestamps).
	Trace *obs.Tracer
	// DistributedGVT selects the ring-reduction GVT protocol for the
	// MESSENGERS run.
	DistributedGVT bool
}

// N returns the full matrix dimension.
func (p MatmulParams) N() int { return p.M * p.S }

// MatmulResult is the outcome of one run.
type MatmulResult struct {
	Elapsed sim.Time
	C       *value.Mat // assembled result; nil under SkipArithmetic
	// Obs is the run's metrics registry (bus.*, host.*, gvt.rounds, ...);
	// nil for the sequential baselines.
	Obs *obs.Metrics
	// GVTCommits is the sequence of GVT values committed during a
	// MESSENGERS run, in commit order (nil for PVM/sequential runs).
	GVTCommits []float64
}

// macsCost is the CPU cost of `macs` multiply-accumulates at block size s.
func macsCost(cm *lan.CostModel, s int, spec lan.HostSpec, macs int64) sim.Time {
	return sim.Time(float64(macs) * float64(cm.MacCost(s, spec)))
}

// matmulBlocks hands out the blocks of one parallel run. With arithmetic on,
// node (i, j) gets its blocks of two seeded N x N inputs and a fresh C, and
// the finished C blocks are gathered into an N x N result. Under
// SkipArithmetic one zero S x S block is every node's A, B and C: no script
// or worker writes it, so it is shared read-only, and nothing is gathered.
type matmulBlocks struct {
	s       int
	a, b, c *value.Mat // inputs and gathered result; nil under SkipArithmetic
	zero    *value.Mat // the shared block; nil with arithmetic on
}

func newMatmulBlocks(p MatmulParams) (*matmulBlocks, error) {
	if p.M < 1 || p.S < 1 {
		return nil, fmt.Errorf("apps: bad matmul params %+v", p)
	}
	if p.SkipArithmetic {
		return &matmulBlocks{s: p.S, zero: value.NewMat(p.S, p.S)}, nil
	}
	n := p.N()
	return &matmulBlocks{
		s: p.S,
		a: matmul.Random(n, p.Seed), b: matmul.Random(n, p.Seed+1), c: value.NewMat(n, n),
	}, nil
}

// node returns node (i, j)'s A, B and C blocks.
func (mb *matmulBlocks) node(i, j int) (a, b, c *value.Mat) {
	if mb.zero != nil {
		return mb.zero, mb.zero, mb.zero
	}
	return matmul.GetBlock(mb.a, i, j, mb.s), matmul.GetBlock(mb.b, i, j, mb.s), value.NewMat(mb.s, mb.s)
}

// gather installs node (i, j)'s finished C block in the result.
func (mb *matmulBlocks) gather(i, j int, c *value.Mat) {
	if mb.c != nil {
		matmul.SetBlock(mb.c, i, j, c)
	}
}

// MsgrDistributeA is the paper's Figure 11 distribute_A script. Deviations
// from the listing, both documented in DESIGN.md: the Messenger installs
// curr_A at its own node before replicating along the row (the listing
// only writes curr_A at the destinations, leaving the diagonal node
// without its block), and the wake time uses the explicit
// ((j - i + m) % m) form because MSL's % truncates toward zero like C.
const MsgrDistributeA = `
	sched_abs((j - i + m) % m);
	node.curr_A = copy_block(node.resid_A);
	msgr.blk = copy_block(node.resid_A);
	hop(ll = "row");
	node.curr_A = msgr.blk;
`

// MsgrRotateB is the paper's Figure 11 rotate_B script. Per the paper's
// prose ("wake up at the half-way point between any two full time ticks,
// that is, at time 0.5 + k"), the wake is the absolute time k + 0.5.
const MsgrRotateB = `
	msgr.blk = copy_block(node.resid_B);
	for (k = 0; k < m; k++) {
		sched_abs(k + 0.5);
		node.C = block_multiply(node.curr_A, msgr.blk, node.C);
		hop(ll = "column", ldir = +);
	}
`

// MatmulMessengers runs the MESSENGERS block multiplication on an M x M
// simulated grid: the Fig. 10 logical network (rows fully connected by
// undirected "row" links, columns directed rings of "column" links), one
// distribute_A and one rotate_B Messenger injected per node, coordinated
// purely by global virtual time.
func MatmulMessengers(cm *lan.CostModel, p MatmulParams) (*MatmulResult, error) {
	mb, err := newMatmulBlocks(p)
	if err != nil {
		return nil, err
	}
	return matmulMessengers(cm, p, mb)
}

func matmulMessengers(cm *lan.CostModel, p MatmulParams, mb *matmulBlocks) (*MatmulResult, error) {
	m := p.M
	k := sim.New()
	n := m * m
	cluster := lan.NewCluster(k, cm, n, p.Host)
	metrics := obs.NewMetrics()
	cluster.Observe(p.Trace, metrics)
	opts := []core.Option{core.WithTracer(p.Trace), core.WithMetrics(metrics)}
	if p.DistributedGVT {
		opts = append(opts, core.WithDistributedGVT())
	}
	sys := core.NewSystem(core.NewSimEngine(cluster), core.FullMesh(n), opts...)

	// Fig. 10 logical network.
	spec := core.NetSpec{}
	name := func(i, j int) string { return fmt.Sprintf("n%d_%d", i, j) }
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			spec.Nodes = append(spec.Nodes, core.NetNode{Name: name(i, j), Daemon: i*m + j})
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			for j2 := j + 1; j2 < m; j2++ {
				spec.Links = append(spec.Links, core.NetLink{
					A: name(i, j), B: name(i, j2), Name: "row",
				})
			}
			// Column ring directed "upward": [i, j] -> [i-1, j].
			if m > 1 {
				up := (i - 1 + m) % m
				spec.Links = append(spec.Links, core.NetLink{
					A: name(i, j), B: name(up, j), Name: "column", Dir: 1,
				})
			}
		}
	}
	if err := sys.BuildNetwork(spec); err != nil {
		return nil, err
	}

	// Distribute the input blocks into node variables (the paper assumes
	// the matrices are already distributed from previous computations).
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			d := sys.Daemon(i*m + j)
			node := d.Store().FindByName(name(i, j))[0]
			a, b, c := mb.node(i, j)
			node.Vars["resid_A"] = value.Matrix(a)
			node.Vars["resid_B"] = value.Matrix(b)
			node.Vars["C"] = value.Matrix(c)
		}
	}

	sys.RegisterNative("copy_block", func(ctx *core.NativeCtx, args []value.Value) (value.Value, error) {
		if args[0].Kind() != value.KindMat {
			return value.Nil(), fmt.Errorf("copy_block of %v", args[0].Kind())
		}
		ctx.Charge(sim.Time(args[0].WireSize()) * ctx.Model().MemPerByte)
		// No script writes the copy (block_multiply writes only node.C), so
		// the block itself serves as it.
		return args[0], nil
	})
	sys.RegisterNative("block_multiply", func(ctx *core.NativeCtx, args []value.Value) (value.Value, error) {
		ca, cb, cc := args[0].AsMat(), args[1].AsMat(), args[2].AsMat()
		if ca == nil || cb == nil || cc == nil {
			return value.Nil(), fmt.Errorf("block_multiply needs three matrices (curr_A missing?)")
		}
		if !p.SkipArithmetic {
			matmul.AddMul(cc, ca, cb)
		}
		ctx.Charge(macsCost(ctx.Model(), p.S, ctx.HostSpec(), matmul.MACs(p.S)))
		return value.Matrix(cc), nil
	})

	distProg, err := compileScript("distribute_A", MsgrDistributeA)
	if err != nil {
		return nil, err
	}
	rotProg, err := compileScript("rotate_B", MsgrRotateB)
	if err != nil {
		return nil, err
	}
	sys.Register(distProg)
	sys.Register(rotProg)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			vars := map[string]value.Value{
				"i": value.Int(int64(i)), "j": value.Int(int64(j)), "m": value.Int(int64(m)),
			}
			if err := sys.InjectAt(i*m+j, "distribute_A", name(i, j), vars); err != nil {
				return nil, err
			}
			if err := sys.InjectAt(i*m+j, "rotate_B", name(i, j), vars); err != nil {
				return nil, err
			}
		}
	}

	elapsed := k.Run()
	if errs := sys.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("apps: matmul messengers: %v", errs[0])
	}

	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			node := sys.Daemon(i*m + j).Store().FindByName(name(i, j))[0]
			blk := node.Vars["C"].AsMat()
			if blk == nil {
				return nil, fmt.Errorf("apps: node %s has no C block", name(i, j))
			}
			mb.gather(i, j, blk)
		}
	}
	sys.FlushVMProfiles()
	return &MatmulResult{
		Elapsed:    elapsed,
		C:          mb.c,
		Obs:        metrics,
		GVTCommits: sys.CommitLog(),
	}, nil
}

// MatmulPVM runs the paper's Figure 9 program under the PVM baseline: the
// manager spawns M*M workers (one per host); each worker multicasts its A
// block along its row when it holds the current diagonal, multiplies, and
// rotates its B block to its northern neighbor.
func MatmulPVM(cm *lan.CostModel, p MatmulParams) (*MatmulResult, error) {
	mb, err := newMatmulBlocks(p)
	if err != nil {
		return nil, err
	}
	return matmulPVM(cm, p, mb)
}

func matmulPVM(cm *lan.CostModel, p MatmulParams, mb *matmulBlocks) (*MatmulResult, error) {
	m := p.M
	const (
		tagABase = 100
		tagBBase = 100000
	)
	k := sim.New()
	n := m * m
	cluster := lan.NewCluster(k, cm, n, p.Host)
	metrics := obs.NewMetrics()
	cluster.Observe(p.Trace, metrics)
	mach := pvm.NewSimMachine(cluster)
	mach.Observe(p.Trace, metrics)
	// The measured phase in the paper's Fig. 12 is the multiplication
	// itself: workers are already running (just as the MESSENGERS side's
	// logical network is already built), so spawning is free here.
	mach.SetSpawnCost(0)

	workerBody := func(i, j int) pvm.TaskFunc {
		return func(w *pvm.Proc) {
			w.JoinGroupAs("mmult", i*m+j)
			myRow := make([]pvm.TID, m)
			for jj := 0; jj < m; jj++ {
				myRow[jj] = w.Gettid("mmult", i*m+jj)
			}
			north := w.Gettid("mmult", ((i-1+m)%m)*m+j)
			south := w.Gettid("mmult", ((i+1)%m)*m+j)

			blockA, blockB, blockC := mb.node(i, j)
			// Unpack destinations are the worker's own. PkMat copies a block
			// into the send buffer, so B may be unpacked into the block just
			// packed. Under SkipArithmetic nobody reads a block, so blocks
			// travel by shape, there is nothing to unpack into, and the
			// shared block stays every block the worker holds.
			var recvA, recvB *value.Mat
			if !p.SkipArithmetic {
				recvA, recvB = value.NewMat(p.S, p.S), value.NewMat(p.S, p.S)
			}
			pack := func(blk *value.Mat) {
				if p.SkipArithmetic {
					w.PkMatShape(p.S, p.S)
				} else {
					w.PkMat(blk)
				}
			}
			// unpack returns the block that now holds buf's matrix.
			unpack := func(buf *pvm.Buffer, dst *value.Mat) *value.Mat {
				if p.SkipArithmetic {
					w.UpkMatShape(buf, p.S, p.S)
					return mb.zero
				}
				w.UpkMat(buf, dst)
				return dst
			}

			for kk := 0; kk < m; kk++ {
				currA := blockA
				if j == (i+kk)%m {
					// This worker holds the block to distribute: multicast
					// it to the rest of its row.
					w.InitSend()
					pack(blockA)
					w.Mcast(myRow, tagABase+kk)
				} else {
					currA = unpack(w.Recv(pvm.AnySource, tagABase+kk), recvA)
				}
				if !p.SkipArithmetic {
					matmul.AddMul(blockC, currA, blockB)
				}
				w.Compute(macsCost(cm, p.S, p.Host, matmul.MACs(p.S)))
				// Rotate B: send to the northern neighbor, receive from the
				// southern one.
				if m > 1 {
					w.InitSend()
					pack(blockB)
					w.Send(north, tagBBase+kk)
					blockB = unpack(w.Recv(south, tagBBase+kk), recvB)
				}
			}
			mb.gather(i, j, blockC) // result stays distributed; gathered for validation
		}
	}

	mach.SpawnAt("manager", 0, func(mgr *pvm.Proc) {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				mgr.Spawn("worker", i*m+j, workerBody(i, j))
			}
		}
	})

	elapsed := k.Run()
	k.Shutdown()
	if errs := mach.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("apps: matmul pvm: %v", errs[0])
	}
	return &MatmulResult{
		Elapsed: elapsed,
		C:       mb.c,
		Obs:     metrics,
	}, nil
}

// MatmulSequentialNaive times the naive triple-loop multiply on one host.
func MatmulSequentialNaive(cm *lan.CostModel, p MatmulParams) *MatmulResult {
	nn := p.N()
	r := &MatmulResult{Elapsed: cm.ScaleFor(p.Host, macsCost(cm, nn, p.Host, matmul.MACs(nn)))}
	if !p.SkipArithmetic {
		r.C = matmul.Naive(matmul.Random(nn, p.Seed), matmul.Random(nn, p.Seed+1))
	}
	return r
}

// MatmulSequentialBlock times the block-partitioned sequential multiply
// (the paper's second baseline) on one host.
func MatmulSequentialBlock(cm *lan.CostModel, p MatmulParams) *MatmulResult {
	nn := p.N()
	// m^3 block multiplies of size s plus the block extraction copies.
	macs := matmul.MACs(p.S) * int64(p.M*p.M*p.M)
	copies := sim.Time(8*nn*nn*3) * cm.MemPerByte
	r := &MatmulResult{Elapsed: cm.ScaleFor(p.Host, macsCost(cm, p.S, p.Host, macs)+copies)}
	if !p.SkipArithmetic {
		r.C = matmul.BlockSequential(matmul.Random(nn, p.Seed), matmul.Random(nn, p.Seed+1), p.M)
	}
	return r
}

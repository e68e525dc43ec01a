package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/obs"
	"messengers/internal/script"
	"messengers/internal/sim"
	"messengers/internal/transport"
	"messengers/internal/value"
	"messengers/internal/vm"
	"messengers/internal/wire"
)

// perLayer is every per-layer metric of the traced run. Every layer is
// measured from outside, by timing calls into its exported functions on the
// same programs and states the workloads use. The workloads run without
// registry or tracer even here, so that the residuals are those of the
// path users run; obs.trace_overhead_pct is what attaching both costs.
var perLayer = []metricDef{
	{"script.parse_us", "us", "serve_mix op_p99_us, ops_per_s (the 8% fresh share); nothing else"},
	{"compile.compile_us", "us", "serve_mix op_p99_us, ops_per_s"},
	{"bytecode.validate_us", "us", "serve_mix op_p99_us, ops_per_s"},
	{"bytecode.lower_us", "us", "serve_mix op_p99_us, ops_per_s"},
	{"bytecode.decode_us", "us", "serve_mix op_p99_us, ops_per_s"},

	{"vm.switch.mandel_ns_per_step", "ns", "compute_mandel (oracle; not the default)"},
	{"vm.threaded.mandel_ns_per_step", "ns", "compute_mandel (rung; not the default)"},
	{"vm.fused.mandel_ns_per_step", "ns", "compute_mandel (rung; not the default)"},
	{"vm.specialized.mandel_ns_per_step", "ns", "compute_mandel op_p50_us, ops_per_s; under 2% of any hop metric"},
	{"vm.switch.matmul_ns_per_step", "ns", "compute_matmul (oracle; not the default)"},
	{"vm.threaded.matmul_ns_per_step", "ns", "compute_matmul (rung; not the default)"},
	{"vm.fused.matmul_ns_per_step", "ns", "compute_matmul (rung; not the default)"},
	{"vm.specialized.matmul_ns_per_step", "ns", "compute_matmul op_p50_us, ops_per_s; under 2% of any hop metric"},
	{"vm.mandel_msteps_per_s", "1/us", "compute_mandel ops_per_s x 95192 steps"},
	{"vm.matmul_msteps_per_s", "1/us", "compute_matmul ops_per_s x 99861 steps"},

	{"vm.segment_hop_ns", "ns", "hop_small op_p50_us, ops_per_s; serve_mix op_p50_us"},
	{"vm.new_ns", "ns", "serve_mix op_p50_us"},
	{"vm.snapshot_small_ns", "ns", "a standalone snapshot (recovery, tools); the TCP hop pays core.msg_encode instead"},
	{"vm.snapshot_32k_ns", "ns", "the same at 32 KB"},
	{"vm.snapshot_512k_ns", "ns", "hop_512k op_p50_us (upper bound: the hop serializes into a pooled frame)"},
	{"vm.restore_small_ns", "ns", "hop_small op_p50_us"},
	{"vm.restore_32k_ns", "ns", "hop_32k op_p50_us"},
	{"vm.restore_512k_ns", "ns", "hop_512k op_p50_us"},
	{"vm.snapshot_32k_allocs", "count", "allocations of one standalone 32 KB snapshot"},

	{"core.msg_encode_small_ns", "ns", "hop_small op_p50_us: snapshot and framing in one pass, as the TCP engine sends"},
	{"core.msg_encode_32k_ns", "ns", "hop_32k op_p50_us"},
	{"core.msg_decode_small_ns", "ns", "hop_small op_p50_us"},
	{"core.msg_decode_32k_ns", "ns", "hop_32k op_p50_us"},
	{"wire.pool_hit_ratio", "ratio", "hop_512k op_p50_us, when a size class is missing"},
	{"wire.bytes_encoded_per_hop", "B", "hop_512k op_p50_us"},

	{"transport.frame_oneway_small_us", "us", "floor under hop_small; the kernel's loopback, not this repo's to optimise"},
	{"transport.frame_oneway_32k_us", "us", "floor under hop_32k"},
	{"transport.frame_oneway_512k_us", "us", "floor under hop_512k"},
	{"transport.net_bytes_per_hop", "B", "hop_small: the fixed bytes a scalar hop puts on the wire"},

	{"core.hop_inproc_ns", "ns", "hop_small op_p50_us, ops_per_s; serve_mix op_p50_us; not hop_512k"},
	{"core.inject_wait_us", "us", "serve_mix op_p50_us"},
	{"core.hop_e2e_small_ns", "ns", "hop_small op_p50_us on the traced run"},
	{"core.hop_residual_small_ns", "ns", "ROADMAP item 1's 'where does the 80% go': lane wait, wake-ups, GVT books"},
	{"core.hop_residual_small_share", "ratio", "the same, as a share of the hop"},
	{"core.hop_e2e_small_2p_ns", "ns", "the same hop under GOMAXPROCS=2: what wake-ups across the two vCPUs add"},
	{"core.hop_e2e_32k_ns", "ns", "hop_32k op_p50_us on the traced run"},
	{"core.hop_residual_32k_ns", "ns", "what no outside probe explains of a 32 KB hop"},
	{"core.hop_residual_32k_share", "ratio", "the same, as a share of the hop"},
	{"core.allocs_per_hop_small", "count", "hop_small ops_per_s"},
	{"core.alloc_bytes_per_hop_32k", "B", "hop_32k op_p50_us"},

	{"core.gvt.rounds", "count", "sim_gvt op_p50_us; exact"},
	{"core.gvt.ctl_msgs_per_round", "count", "sim_gvt op_p50_us; exact"},
	{"core.gvt.round_sim_ms", "sim_ms", "simulated GVT round time, coordinator; exact"},
	{"core.gvt.round_sim_ms_ring", "sim_ms", "the same leg under the ring reduction; exact"},
	{"core.registry_miss", "count", "nothing that gates; ROADMAP item 4's fix should drive it to 0 (out of 2000)"},

	{"serve.submit_cached_us", "us", "serve_mix op_p50_us"},
	{"serve.submit_fresh_us", "us", "serve_mix op_p99_us (Submit holds the server lock while compiling)"},
	{"serve.evict_us", "us", "serve_mix ops_per_s"},
	{"serve.reject_share", "ratio", "expected 0"},
	{"serve.session_p50_us", "us", "serve_mix op_p50_us on the traced run"},

	{"sim.heap.events_per_s", "1/s", "sim_gvt (oracle queue)"},
	{"sim.calendar.events_per_s", "1/s", "sim_gvt"},
	{"sim.adaptive.events_per_s", "1/s", "sim_gvt op_p50_us; little of sim_figs"},
	{"sim.gvt_events", "count", "sim_gvt op_p50_us; exact"},
	{"sim.gvt_pass_wall_ms", "ms", "sim_gvt op_p50_us on the traced run"},

	{"lan.bus_msgs", "count", "a constant; a change means the simulated model moved"},
	{"lan.bus_bytes", "B", "a constant"},
	{"pvm.pack_bytes", "B", "a constant"},
	{"mandel.kernel_share", "ratio", "sim_figs op_p50_us: the real Mandelbrot kernel's share of a pass"},
	{"matmul.kernel_share", "ratio", "sim_figs op_p50_us: the sequential matmul baselines' share of a pass"},
	{"pvm.pass_wall_s", "s", "sim_figs op_p50_us"},
	{"apps.msgr_pass_wall_s", "s", "sim_figs op_p50_us"},
	{"apps.seq_pass_wall_s", "s", "sim_figs op_p50_us: the sequential baselines, the Figure 4 one being the real kernel"},
	{"apps.fig_pass_wall_s", "s", "sim_figs op_p50_us on the traced run"},

	{"obs.trace_overhead_pct", "%", "the cost of the measurement path itself (ROADMAP aim 4)"},
}

// layerTable is the result of the traced run.
type layerTable struct {
	w        *workload
	selected *outcome
	values   map[string]float64
	spans    *spanRec
	recon    string // the reconciliation line
}

// stubHost is the cmd/mvm bench host: node variables in a map, $last
// pinned, print discarded.
type stubHost struct{ vars map[string]value.Value }

func (h *stubHost) NodeVar(name string) value.Value { return h.vars[name] }
func (h *stubHost) SetNodeVar(name string, v value.Value) {
	if h.vars == nil {
		h.vars = map[string]value.Value{}
	}
	h.vars[name] = v
}
func (h *stubHost) NetVar(string) (value.Value, bool) { return value.Str("ring"), true }
func (h *stubHost) Print(string)                      {}

// budgets are how long the parts of a traced run measure. They scale with
// -seconds so that the smoke test's traced run is short.
type budgets struct {
	selected time.Duration // the selected workload: a fifth of its length
	mini     time.Duration // every other workload, to supply its counts: 250 ms of 10 s
	probe    time.Duration // one timeIt, of which there are about fifty: 40 ms of 10 s
}

// tracedRun is `mbench -trace 1`: the selected workload at a fifth of its
// length with benchmark-side spans recorded, the other workloads briefly
// for their counts, then the probes.
func tracedRun(w *workload, seed int64, seconds float64, traceOut string) (*layerTable, error) {
	lt := &layerTable{w: w, values: map[string]float64{}, spans: newSpanRec()}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	b := budgets{selected: sec(seconds / 5), mini: sec(seconds / 40), probe: sec(seconds / 250)}
	outs := map[string]*outcome{}
	for i := range workloads {
		x := &workloads[i]
		e := &env{seed: seed, budget: b.mini, setups: 1}
		if x.name == w.name {
			e.budget = b.selected
			e.spans = lt.spans
		}
		out, err := x.run(e)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", x.name, err)
		}
		outs[x.name] = out
	}
	lt.selected = outs[w.name]
	// A failed check in any of the brief runs fails the traced run too.
	for name, out := range outs {
		if name != w.name {
			for _, f := range out.failures {
				lt.selected.failf("%s: %s", name, f)
			}
		}
	}
	v := lt.values
	if err := probeCompile(v, b.probe); err != nil {
		return nil, err
	}
	if err := probeDispatch(v, b.probe); err != nil {
		return nil, err
	}
	hops, err := probeHopPath(v, b.probe)
	if err != nil {
		return nil, err
	}
	if err := probeCore(v, seed, b); err != nil {
		return nil, err
	}
	if err := probeSim(v); err != nil {
		return nil, err
	}

	// Counts of the workloads' own runs.
	small, k32, k512 := outs["hop_small"], outs["hop_32k"], outs["hop_512k"]
	v["wire.pool_hit_ratio"] = k512.facts["pool_hit_ratio"]
	v["wire.bytes_encoded_per_hop"] = k512.facts["wire_bytes_per_hop"]
	v["core.allocs_per_hop_small"] = small.facts["allocs_per_hop"]
	v["core.alloc_bytes_per_hop_32k"] = k32.facts["alloc_bytes_per_hop"]
	v["vm.mandel_msteps_per_s"] = outs["compute_mandel"].facts["msteps_per_s"]
	v["vm.matmul_msteps_per_s"] = outs["compute_matmul"].facts["msteps_per_s"]
	sv := outs["serve_mix"]
	for _, k := range []string{"submit_cached_us", "submit_fresh_us", "evict_us", "reject_share"} {
		v["serve."+k] = sv.facts[k]
	}
	v["serve.session_p50_us"] = quietP50(sv.opUS)
	figs := outs["sim_figs"].facts
	passes := figs["passes"]
	passWall := (figs["wall_s.msgr"] + figs["wall_s.pvm"] + figs["wall_s.seq"]) / passes
	v["lan.bus_msgs"] = figs["bus_msgs"] / passes
	v["lan.bus_bytes"] = figs["bus_bytes"] / passes
	v["pvm.pack_bytes"] = figs["pack_bytes"] / passes
	// Every Figure 4 cell computes the same image once, on the host, with
	// the kernel the sequential cell times alone.
	const mandelCells = 13
	v["mandel.kernel_share"] = mandelCells * figs["wall_s.mandel_kernel"] / passes / passWall
	v["matmul.kernel_share"] = (figs["wall_s.seq"] - figs["wall_s.mandel_kernel"]) / passes / passWall
	v["pvm.pass_wall_s"] = figs["wall_s.pvm"] / passes
	v["apps.msgr_pass_wall_s"] = figs["wall_s.msgr"] / passes
	v["apps.seq_pass_wall_s"] = figs["wall_s.seq"] / passes
	v["apps.fig_pass_wall_s"] = quietP50(outs["sim_figs"].opUS) / 1e6
	v["sim.gvt_pass_wall_ms"] = quietP50(outs["sim_gvt"].opUS) / 1e3

	// Residuals: the end-to-end hop minus everything an outside probe
	// explains. What is left is lane wait, wake-ups and GVT books.
	for _, r := range []struct {
		size string
		out  *outcome
		seg  float64
	}{{"small", small, v["vm.segment_hop_ns"]}, {"32k", k32, hops.segment32k}} {
		e2e := quietP50(r.out.opUS) * 1e3
		sum := r.seg + v["core.msg_encode_"+r.size+"_ns"] +
			v["transport.frame_oneway_"+r.size+"_us"]*1e3 + v["core.msg_decode_"+r.size+"_ns"] +
			v["vm.restore_"+r.size+"_ns"]
		v["core.hop_e2e_"+r.size+"_ns"] = e2e
		v["core.hop_residual_"+r.size+"_ns"] = e2e - sum
		v["core.hop_residual_"+r.size+"_share"] = (e2e - sum) / e2e
	}
	lt.reconcile()

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		if err := obs.WriteChromeTrace(f, lt.spans.tr); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return lt, nil
}

// reconcile writes, for the selected workload, the line that holds the
// probes against the end-to-end figure: their sum, the end-to-end per-op
// time, and what is left over as a share.
func (lt *layerTable) reconcile() {
	v := lt.values
	e2e := quietP50(lt.selected.opUS)
	line := func(what string, sum float64) {
		lt.recon = fmt.Sprintf("%s: probes sum %.3f us, end-to-end %.3f us per op, residual %.1f%%",
			what, sum, e2e, 100*(e2e-sum)/e2e)
	}
	switch lt.w.name {
	case "hop_small":
		line("hop_small (segment + msg encode + frame one-way + msg decode + restore)",
			(v["core.hop_e2e_small_ns"]-v["core.hop_residual_small_ns"])/1e3)
	case "hop_32k":
		line("hop_32k (segment + msg encode + frame one-way + msg decode + restore)",
			(v["core.hop_e2e_32k_ns"]-v["core.hop_residual_32k_ns"])/1e3)
	case "hop_512k":
		line("hop_512k (snapshot + frame one-way + restore)",
			(v["vm.snapshot_512k_ns"]+v["vm.restore_512k_ns"])/1e3+v["transport.frame_oneway_512k_us"])
	case "compute_mandel":
		line("compute_mandel (vm.specialized.mandel_ns_per_step x steps of one repetition)",
			v["vm.specialized.mandel_ns_per_step"]*mandelSessionSteps/sessionReps/1e3)
	case "compute_matmul":
		line("compute_matmul (vm.specialized.matmul_ns_per_step x steps of one repetition)",
			v["vm.specialized.matmul_ns_per_step"]*matmulSessionSteps/sessionReps/1e3)
	case "serve_mix":
		line("serve_mix (submit_cached + inject_wait + 4 serial small hops)",
			v["serve.submit_cached_us"]+v["core.inject_wait_us"]+serveHops*v["core.hop_e2e_small_ns"]/1e3)
	case "sim_figs":
		line("sim_figs (MESSENGERS runs + PVM runs + sequential baselines of one pass)",
			(v["apps.msgr_pass_wall_s"]+v["pvm.pass_wall_s"]+v["apps.seq_pass_wall_s"])*1e6)
	case "sim_gvt":
		line("sim_gvt (events of one pass at the bare adaptive-queue rate)",
			v["sim.gvt_events"]/v["sim.adaptive.events_per_s"]*1e6)
	}
}

func (lt *layerTable) print(w io.Writer) {
	lt.spans.printStack(w, lt.w.name)
	fmt.Fprintf(w, "per-layer table (traced run; every layer measured from outside)\n")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-36s %16.4f %-6s  moves: %s\n", d.name, lt.values[d.name], d.unit, d.moves)
	}
	fmt.Fprintf(w, "reconcile %s\n", lt.recon)
}

// probeCompile times the admission path's stages on the walker source, the
// one a fresh serve_mix session pays for.
func probeCompile(v map[string]float64, probe time.Duration) error {
	prog, err := compile.Compile("t0/walker", walkerSrc)
	if err != nil {
		return err
	}
	v["script.parse_us"] = timeIt(probe, func() { script.Parse(walkerSrc) }) / 1e3
	v["compile.compile_us"] = timeIt(probe, func() { compile.Compile("t0/walker", walkerSrc) }) / 1e3
	v["bytecode.validate_us"] = timeIt(probe, func() { prog.Validate() }) / 1e3
	// Validate drops the cached lowering, so each Lowered call builds the
	// stream the default dispatch runs; only that call is timed.
	var lower []float64
	for i := 0; i < 2000; i++ {
		prog.Validate()
		t0 := time.Now()
		prog.Lowered(bytecode.LowerKind) //lint:vmdispatch the probe times the lowering pass from outside
		lower = append(lower, float64(time.Since(t0).Nanoseconds()))
	}
	v["bytecode.lower_us"] = percentile(lower, quiet) / 1e3
	enc := prog.Encode()
	v["bytecode.decode_us"] = timeIt(probe, func() { bytecode.Decode(enc) }) / 1e3
	return nil
}

// runToEnd runs a VM to completion, resuming every pause in place.
func runToEnd(m *vm.VM, host vm.Host) (steps int64, err error) {
	for {
		res, err := m.Run(host, 0)
		if err != nil {
			return 0, err
		}
		steps += res.Steps
		if res.Pause == vm.PauseEnd {
			return steps, nil
		}
	}
}

// probeDispatch times one repetition of each compute kernel under every
// dispatch mode, as cmd/mvm does: vm.New, SetDispatch, Run on a stub host.
func probeDispatch(v map[string]float64, probe time.Duration) error {
	for _, k := range []struct {
		name string
		src  string
		vars map[string]value.Value
	}{
		{"mandel", mandelSrc, map[string]value.Value{"ci": value.Num(0.3), "inside": value.Int(0)}},
		{"matmul", matmulSrc, map[string]value.Value{"g": value.Num(2), "inside": value.Num(0)}},
	} {
		prog, err := compile.Compile(k.name, k.src)
		if err != nil {
			return err
		}
		k.vars["reps"], k.vars["every"] = value.Int(1), value.Int(2)
		for _, mode := range []vm.Dispatch{vm.DispatchSwitch, vm.DispatchThreaded, vm.DispatchFused, vm.DispatchSpecialized} {
			var steps int64
			var rerr error
			ns := timeIt(probe, func() {
				m := vm.New(prog, value.CloneEnv(k.vars))
				m.SetDispatch(mode)
				if steps, err = runToEnd(m, &stubHost{}); err != nil {
					rerr = err
				}
			})
			if rerr != nil {
				return fmt.Errorf("dispatch %s/%s: %w", k.name, mode, rerr)
			}
			v[fmt.Sprintf("vm.%s.%s_ns_per_step", mode, k.name)] = ns / float64(steps)
		}
	}
	return nil
}

// hopProbes carries what probeHopPath measured but the table does not list.
type hopProbes struct{ segment32k float64 }

// pausedWalker returns a walker VM paused at its first hop, carrying an
// n x n matrix (n = 0: scalar state only), with its program.
func pausedWalker(n int) (*vm.VM, *bytecode.Program, error) {
	src, vars := walkerSrc, map[string]value.Value{"hops": value.Int(1 << 40)}
	if n > 0 {
		src = blockWalkerSrc
		vars["blk"], vars["n"] = value.Matrix(value.NewMat(n, n)), value.Int(int64(n))
	}
	prog, err := compile.Compile("walker", src)
	if err != nil {
		return nil, nil, err
	}
	m := vm.New(prog, vars)
	if res, err := m.Run(&stubHost{}, 0); err != nil || res.Pause != vm.PauseHop {
		return nil, nil, fmt.Errorf("walker did not pause at a hop: %v %v", res.Pause, err)
	}
	return m, prog, nil
}

// probeHopPath replays the stages of one remote hop on the paused workload
// VMs: segment, message encode (which serializes the VM), frame over
// loopback, message decode, restore.
func probeHopPath(v map[string]float64, probe time.Duration) (hopProbes, error) {
	var hp hopProbes
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return hp, err
	}
	defer ln.Close()
	// The echo side of the ping-pong: read a frame, write it back.
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r, w := bufio.NewReader(c), bufio.NewWriter(c)
		for {
			p, err := transport.ReadFrame(r)
			if err != nil {
				return
			}
			if transport.WriteFrame(w, p) != nil || w.Flush() != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return hp, err
	}
	defer func() {
		conn.Close()
		<-echoDone
	}()
	cr, cw := bufio.NewReader(conn), bufio.NewWriter(conn)
	var perr error

	for _, s := range []struct {
		size string
		n    int
	}{{"small", 0}, {"32k", 64}, {"512k", 256}} {
		m, prog, err := pausedWalker(s.n)
		if err != nil {
			return hp, err
		}
		host := &stubHost{}
		seg := timeIt(probe, func() {
			if _, err := m.Run(host, 0); err != nil {
				perr = err
			}
		})
		switch s.size {
		case "small":
			v["vm.segment_hop_ns"] = seg
			vars := map[string]value.Value{"hops": value.Int(serveHops)}
			v["vm.new_ns"] = timeIt(probe, func() { vm.New(prog, vars) })
		case "32k":
			hp.segment32k = seg
		}
		snap, err := m.Snapshot()
		if err != nil {
			return hp, err
		}
		v["vm.snapshot_"+s.size+"_ns"] = timeIt(probe, func() { m.Snapshot() })
		v["vm.restore_"+s.size+"_ns"] = timeIt(probe, func() {
			if _, err := vm.Restore(prog, snap); err != nil {
				perr = err
			}
		})
		if s.size == "32k" {
			const calls = 200
			mem := memStart()
			for i := 0; i < calls; i++ {
				m.Snapshot()
			}
			mallocs, _ := mem.stop()
			v["vm.snapshot_32k_allocs"] = mallocs / calls
		}
		// A Messenger-carrying message as the daemon builds it for a remote
		// hop: the VM travels by XferVM and the TCP engine serializes it
		// straight into the pooled frame, snapshot and framing in one pass.
		msg := &core.Msg{
			Kind: core.MsgMessenger, ProgHash: prog.Hash(), XferVM: m,
			MsgrID: 1, LVT: 1.5, DestNode: 7, Last: "ring",
		}
		enc := wire.NewEncoder()
		if err := msg.EncodeFrame(enc); err != nil {
			return hp, err
		}
		payload := append([]byte(nil), enc.Bytes()[wire.FrameHeaderLen:]...)
		enc.Release()
		if s.size != "512k" {
			v["core.msg_encode_"+s.size+"_ns"] = timeIt(probe, func() {
				e := wire.NewEncoder()
				if err := msg.EncodeFrame(e); err != nil {
					perr = err
				}
				e.Release()
			})
			v["core.msg_decode_"+s.size+"_ns"] = timeIt(probe, func() {
				if _, err := core.DecodeMsg(payload); err != nil {
					perr = err
				}
			})
		}
		rtt := timeIt(probe, func() {
			if err := transport.WriteFrame(cw, payload); err != nil {
				perr = err
			}
			if err := cw.Flush(); err != nil {
				perr = err
			}
			if _, err := transport.ReadFrame(cr); err != nil {
				perr = err
			}
		})
		v["transport.frame_oneway_"+s.size+"_us"] = rtt / 2 / 1e3
	}
	return hp, perr
}

// probeCore takes the numbers that need a running system: the in-process
// hop, inject-to-wait of an empty program, the registry-miss count, and the
// cost of the tracer and registry themselves.
func probeCore(v map[string]float64, seed int64, b budgets) error {
	serial := hopSmall
	serial.inflight = 0
	inproc, err := runHop(&env{seed: seed, budget: b.mini, setups: 1}, serial, false)
	if err != nil {
		return err
	}
	v["core.hop_inproc_ns"] = quietP50(inproc.opUS) * 1e3

	// The serial TCP hop again with a second P: what a wake-up across the
	// sandbox's two vCPUs adds.
	prev := runtime.GOMAXPROCS(2)
	twoP, err := runHop(&env{seed: seed, budget: b.mini, setups: 1}, serial, true)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	v["core.hop_e2e_small_2p_ns"] = quietP50(twoP.opUS) * 1e3

	sys, err := newRing(true, nil, nil, map[string]string{"noop": `x = 1;`})
	if err != nil {
		return err
	}
	v["core.inject_wait_us"] = timeIt(b.probe, func() {
		if err := sys.Inject(0, "noop", nil); err != nil {
			panic(err) // the script is registered
		}
		sys.Wait()
	}) / 1e3
	sys.Close()

	const probeSessions = 2000
	if v["core.registry_miss"], err = registryMisses(&env{seed: seed}, probeSessions); err != nil {
		return err
	}

	// hop_small's throughput phase with the tracer and the registry
	// attached against without, round about so that drift hits both: what
	// the measurement path itself costs. The registry also says how many
	// bytes a scalar hop puts on the wire.
	off, err := newHopSys(seed, hopSmall, true, nil, nil)
	if err != nil {
		return err
	}
	defer off.close()
	met := obs.NewMetrics()
	on, err := newHopSys(seed, hopSmall, true, met, obs.NewTracer())
	if err != nil {
		return err
	}
	defer on.close()
	var roundsOff, roundsOn []lapse
	for deadline := time.Now().Add(2 * b.mini); len(roundsOn) == 0 || time.Now().Before(deadline); {
		roundsOff = append(roundsOff, off.round(nil))
		roundsOn = append(roundsOn, on.round(nil))
	}
	v["obs.trace_overhead_pct"] = 100 * (quietRate(chunkRates(roundsOff))/quietRate(chunkRates(roundsOn)) - 1)
	v["transport.net_bytes_per_hop"] = float64(met.CounterValue("net.bytes")) / float64(met.CounterValue("msgr.hops.remote"))
	return nil
}

// probeSim takes the simulated legs' exact counts and the bare event-queue
// rates.
func probeSim(v map[string]float64) error {
	coord, err := gvtPass(false, 0)
	if err != nil {
		return err
	}
	ring, err := gvtPass(true, 0)
	if err != nil {
		return err
	}
	v["core.gvt.rounds"] = float64(coord.rounds)
	v["core.gvt.ctl_msgs_per_round"] = float64(coord.ctlMsgs) / float64(coord.rounds)
	v["core.gvt.round_sim_ms"] = float64(coord.roundTime) / float64(coord.rounds) / 1e6
	v["core.gvt.round_sim_ms_ring"] = float64(ring.roundTime) / float64(ring.rounds) / 1e6
	v["sim.gvt_events"] = float64(coord.events)

	// The cmd/mgvt timer microbenchmark: self-rescheduling timers with
	// staggered periods on 1000 hosts.
	const hosts, events = 1000, 200_000
	for _, impl := range []string{"heap", "calendar", "adaptive"} {
		k := sim.NewWithQueue(impl)
		fired := 0
		start := time.Now()
		for h := 0; h < hosts; h++ {
			period := sim.Time(1000 + 17*h)
			var tick func()
			tick = func() {
				fired++
				if fired < events {
					k.After(period, tick)
				}
			}
			k.After(period, tick)
		}
		k.Run()
		v["sim."+impl+".events_per_s"] = float64(fired) / time.Since(start).Seconds()
	}
	return nil
}

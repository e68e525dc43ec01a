// Package messengers is a Go implementation of MESSENGERS, the distributed
// programming system of "Messages versus Messengers in Distributed
// Programming" (Fukuda, Bic, Dillencourt, Cahill; ICDCS 1997).
//
// Applications are collections of autonomous self-migrating computations
// (Messengers) written in MSL, a C-like script language with navigational
// statements. A Messenger is injected into the init node of a daemon and
// from there navigates an application-created logical network with hop,
// extends it with create, and prunes it with delete; node variables provide
// rendezvous-style communication between Messengers, and global virtual
// time (sched_abs / sched_dlt) provides temporal coordination.
//
// Two runtimes execute the same daemon logic:
//
//   - a real concurrent runtime (NewRealSystem): one goroutine per daemon
//     on this machine, suitable for actually running MESSENGERS programs;
//   - a simulated cluster (NewSimSystem): a deterministic discrete-event
//     model of SPARCstation-class hosts on a shared 10 Mb/s Ethernet, used
//     by the benchmark harness to reproduce the paper's experiments.
//
// See README.md for a tour and examples/ for runnable programs.
package messengers

import (
	"fmt"
	"io"
	"time"

	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/faults"
	"messengers/internal/lan"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/transport"
	"messengers/internal/value"
)

// Re-exported value types: the dynamic values Messenger scripts, node
// variables, and native functions exchange.
type (
	// Value is a dynamically typed MSL value.
	Value = value.Value
	// Mat is a dense float64 matrix Value payload.
	Mat = value.Mat
)

// Value constructors.
var (
	// NilValue returns the nil Value.
	NilValue = value.Nil
	// IntValue returns an integer Value.
	IntValue = value.Int
	// NumValue returns a floating-point Value.
	NumValue = value.Num
	// StrValue returns a string Value.
	StrValue = value.Str
	// BytesValue returns a byte-block Value.
	BytesValue = value.Bytes
	// ArrValue returns an array Value.
	ArrValue = value.Arr
	// MatrixValue returns a matrix Value.
	MatrixValue = value.Matrix
	// NewMat allocates a zeroed matrix.
	NewMat = value.NewMat
)

// Native-function interface: Go functions callable from MSL scripts (the
// paper's native-mode C functions).
type (
	// NativeCtx is the execution context passed to native functions.
	NativeCtx = core.NativeCtx
	// NativeFunc is a registered native function.
	NativeFunc = core.NativeFunc
)

// Daemon-network topologies.
type Topology = core.Topology

// Topology constructors.
var (
	// FullMesh connects every daemon pair (the default).
	FullMesh = core.FullMesh
	// Ring connects daemons in a directed ring.
	Ring = core.Ring
	// Grid connects daemons in a 2-D mesh.
	Grid = core.Grid
	// Star connects daemon 0 to all others.
	Star = core.Star
)

// Static logical-network construction (the net_builder service).
type (
	// NetSpec describes a static logical network.
	NetSpec = core.NetSpec
	// NetNode declares one logical node.
	NetNode = core.NetNode
	// NetLink declares one logical link.
	NetLink = core.NetLink
)

// Stats aggregates daemon activity counters.
type Stats = core.Stats

// Observability: attach a Tracer and/or Metrics registry via Config to
// record what a run did — Messenger lifecycle, VM segments, GVT, and
// network events on one track per daemon, plus named counters.
type (
	// Tracer records structured trace events (Chrome trace_event
	// exportable). A nil *Tracer is a valid no-op.
	Tracer = obs.Tracer
	// Metrics is a registry of named counters/gauges/histograms. A nil
	// *Metrics hands out nil (no-op) instruments.
	Metrics = obs.Metrics
	// TraceEvent is one recorded trace event.
	TraceEvent = obs.Event
)

// Observability constructors and exporters.
var (
	// NewTracer returns an empty tracer (wall-clock timestamps until a
	// run binds it to an engine clock).
	NewTracer = obs.NewTracer
	// NewMetrics returns an empty metrics registry.
	NewMetrics = obs.NewMetrics
	// WriteChromeTrace writes a tracer's events as Chrome trace_event
	// JSON (load in Perfetto or chrome://tracing).
	WriteChromeTrace = obs.WriteChromeTrace
	// WriteMetricsCSV writes a registry snapshot as CSV.
	WriteMetricsCSV = obs.WriteMetricsCSV
	// FormatMetrics renders a registry snapshot as an aligned table.
	FormatMetrics = obs.FormatMetrics
)

// Simulation cost modeling (used by NewSimSystem).
type (
	// CostModel holds the calibrated constants of the simulated testbed.
	CostModel = lan.CostModel
	// HostSpec describes a simulated workstation model.
	HostSpec = lan.HostSpec
	// SimTime is simulated time in nanoseconds.
	SimTime = sim.Time
)

// Simulation defaults.
var (
	// DefaultCostModel returns the calibrated cost model.
	DefaultCostModel = lan.DefaultCostModel
	// SPARC110 is the 110 MHz SPARCstation 5 host model.
	SPARC110 = lan.SPARC110
	// SPARC170 is the 170 MHz SPARCstation 5 host model.
	SPARC170 = lan.SPARC170
)

// Config configures a System.
type Config struct {
	// Daemons is the daemon count (one per host). Required, >= 1.
	Daemons int
	// Topology is the daemon network; FullMesh(Daemons) when nil.
	Topology *Topology
	// Output mirrors script print output as it happens (optional).
	Output io.Writer
	// GVTInterval overrides the conservative GVT round period (optional).
	GVTInterval SimTime
	// DistributedGVT selects the ring-reduction GVT protocol instead of
	// the centralized coordinator on daemon 0: ≤2 control messages per
	// daemon per round with no single convergence point, at the cost of
	// O(daemons) token latency per round. Recommended past a few dozen
	// daemons; see docs/GVT.md.
	DistributedGVT bool
	// Trace, when non-nil, receives the run's events: one track per
	// daemon (plus a bus track on simulated systems). Simulated systems
	// stamp events with simulated time; real systems with wall time since
	// engine start.
	Trace *Tracer
	// Metrics, when non-nil, receives the run's counters (msgr.*, vm.*,
	// gvt.*, net.*; bus.* and host.* on simulated systems).
	Metrics *Metrics

	// Model and Host configure the simulated engine (NewSimSystem only);
	// DefaultCostModel() and SPARC110 when zero.
	Model *CostModel
	Host  HostSpec

	// Faults, when non-nil, injects the plan's deterministic faults —
	// message drop/duplicate/corrupt, latency spikes, partitions, daemon
	// crashes and restarts — into the run, and enables Recovery. Supported
	// on simulated and TCP systems (see docs/FAULTS.md).
	Faults *FaultPlan
	// Recovery enables the messenger-level recovery protocol (hop-level
	// acknowledgements, retransmission, duplicate suppression, crash
	// respawn from snapshots) even without a fault plan. Implied by Faults.
	Recovery bool
	// RecoveryRetain bounds how many acknowledged Messenger snapshots each
	// daemon retains for crash respawn (0 = keep all until GVT fossil
	// collection). Long-running services should set it: it also bounds the
	// duplicate-suppression memory on receivers.
	RecoveryRetain int
}

// FaultPlan is a deterministic, seedable fault-injection plan.
type FaultPlan = faults.Plan

// LoadFaultPlan reads a fault plan from a JSON file.
var LoadFaultPlan = faults.Load

func (c *Config) options() []core.Option {
	var opts []core.Option
	if c.Output != nil {
		opts = append(opts, core.WithOutput(c.Output))
	}
	if c.GVTInterval > 0 {
		opts = append(opts, core.WithGVTInterval(c.GVTInterval))
	}
	if c.Trace != nil {
		opts = append(opts, core.WithTracer(c.Trace))
	}
	if c.Metrics != nil {
		opts = append(opts, core.WithMetrics(c.Metrics))
	}
	if c.Recovery || c.Faults != nil {
		opts = append(opts, core.WithRecovery(core.RecoveryConfig{RetainBudget: c.RecoveryRetain}))
	}
	if c.DistributedGVT {
		opts = append(opts, core.WithDistributedGVT())
	}
	return opts
}

func (c *Config) topology() *Topology {
	if c.Topology != nil {
		return c.Topology
	}
	return FullMesh(c.Daemons)
}

// System is a running MESSENGERS installation: a set of daemons, their
// script registry, native functions, and logical networks.
type System struct {
	*core.System
	kernel  *sim.Kernel
	chanEng *core.ChanEngine
	tcpEng  *transport.TCPEngine
	cluster *lan.Cluster
	// faultTimers are the fault plan's crashes and restarts on a TCP
	// system, armed by NewTCPSystem and stopped by Close.
	faultTimers []*time.Timer
}

// NewRealSystem starts cfg.Daemons concurrent daemons (goroutines) on this
// machine. Close the system when done.
func NewRealSystem(cfg Config) (*System, error) {
	if cfg.Daemons < 1 {
		return nil, fmt.Errorf("messengers: config needs at least 1 daemon")
	}
	if cfg.Faults != nil {
		return nil, fmt.Errorf("messengers: fault injection requires a simulated or TCP system (the channel engine has no wire to fault)")
	}
	eng := core.NewChanEngine(cfg.Daemons)
	sys := core.NewSystem(eng, cfg.topology(), cfg.options()...)
	return &System{System: sys, chanEng: eng}, nil
}

// Heartbeat cadence for TCP systems running with recovery enabled: probes
// every interval, a peer silent for deadAfter is declared failed.
const (
	tcpHeartbeatInterval  = 50 * time.Millisecond
	tcpHeartbeatDeadAfter = 250 * time.Millisecond
)

// NewTCPSystem starts cfg.Daemons daemons whose inter-daemon traffic flows
// over real TCP sockets on the given addresses (use "127.0.0.1:0" entries
// for ephemeral loopback ports). The full binary wire format — Messenger
// snapshots, program hashes, GVT control traffic — is exercised for real.
// Close the system when done.
func NewTCPSystem(cfg Config, addrs []string) (*System, error) {
	if cfg.Daemons < 1 {
		return nil, fmt.Errorf("messengers: config needs at least 1 daemon")
	}
	if len(addrs) == 0 {
		addrs = make([]string, cfg.Daemons)
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
	}
	if len(addrs) != cfg.Daemons {
		return nil, fmt.Errorf("messengers: %d addresses for %d daemons", len(addrs), cfg.Daemons)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Daemons); err != nil {
			return nil, err
		}
	}
	eng, err := transport.NewTCPEngine(addrs)
	if err != nil {
		return nil, err
	}
	if cfg.Trace != nil {
		eng.SetTracer(cfg.Trace)
	}
	if cfg.Metrics != nil {
		eng.SetMetrics(cfg.Metrics)
	}
	sys := core.NewSystem(eng, cfg.topology(), cfg.options()...)
	s := &System{System: sys, tcpEng: eng}
	if cfg.Recovery || cfg.Faults != nil {
		// Real transport: failures are detected by heartbeat monitoring,
		// not by scheduled notices.
		eng.StartHeartbeats(tcpHeartbeatInterval, tcpHeartbeatDeadAfter)
	}
	if cfg.Faults != nil {
		inj := faults.NewInjector(cfg.Faults, cfg.Metrics, cfg.Trace)
		eng.SetFaultHook(inj.Decide)
		start := time.Now()
		faults.Schedule(cfg.Faults, s, func(at int64, fn func()) {
			d := time.Duration(at) - time.Since(start)
			if d < 0 {
				d = 0
			}
			s.faultTimers = append(s.faultTimers, time.AfterFunc(d, fn))
		}, false)
	}
	return s, nil
}

// NewSimSystem builds a simulated cluster of cfg.Daemons hosts. Run the
// computation with RunSim after injecting Messengers.
func NewSimSystem(cfg Config) (*System, error) {
	if cfg.Daemons < 1 {
		return nil, fmt.Errorf("messengers: config needs at least 1 daemon")
	}
	model := cfg.Model
	if model == nil {
		model = DefaultCostModel()
	}
	host := cfg.Host
	if host.MHz == 0 {
		host = SPARC110
	}
	k := sim.New()
	cluster := lan.NewCluster(k, model, cfg.Daemons, host)
	// Bus frames and host busy time land in the same tracer/registry,
	// and the tracer clock is bound to the simulation kernel so two
	// identical runs export byte-identical traces.
	cluster.Observe(cfg.Trace, cfg.Metrics)
	sys := core.NewSystem(core.NewSimEngine(cluster), cfg.topology(), cfg.options()...)
	s := &System{System: sys, kernel: k, cluster: cluster}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Daemons); err != nil {
			return nil, err
		}
		inj := faults.NewInjector(cfg.Faults, cfg.Metrics, cfg.Trace)
		cluster.SetFaultHook(inj.Decide)
		// On the simulated engine, scheduled notices replace a failure
		// detector: delivery is deterministic, so runs replay exactly.
		faults.Schedule(cfg.Faults, s, func(at int64, fn func()) {
			k.At(sim.Time(at), fn)
		}, true)
	}
	return s, nil
}

// Crash kills daemon d mid-run: it stops processing and loses all
// in-memory state (logical nodes, resident Messengers, GVT books), exactly
// as a daemon process dying would. On TCP systems the daemon is also
// severed from the network so heartbeat detection sees it die. Requires
// Recovery (or a fault plan).
func (s *System) Crash(d int) {
	if s.tcpEng != nil {
		s.tcpEng.KillDaemon(d)
	}
	s.System.Crash(d)
}

// Restart revives a crashed daemon as a fresh, empty daemon (init node
// only). Survivors re-send what the dead daemon lost: unacknowledged
// Messengers are respawned from their last transmitted snapshots.
func (s *System) Restart(d int) {
	s.System.Restart(d)
	if s.tcpEng != nil {
		if err := s.tcpEng.ReviveDaemon(d); err != nil {
			s.tcpEng.KillDaemon(d)
		}
	}
}

// CompileAndRegister compiles MSL source and installs it in the system's
// script registry under the given name (see Register).
func (s *System) CompileAndRegister(name, src string) error {
	prog, err := compile.Compile(name, src)
	if err != nil {
		return err
	}
	s.Register(prog)
	return nil
}

// RunSim drives the simulated cluster until the computation quiesces and
// returns the simulated makespan. Panics if called on a real system.
func (s *System) RunSim() SimTime {
	if s.kernel == nil {
		panic("messengers: RunSim on a real system (use Wait)")
	}
	t := s.kernel.Run()
	s.FlushVMProfiles()
	return t
}

// Kernel exposes the simulation kernel (nil on real systems).
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// Cluster exposes the simulated cluster (nil on real systems), for
// utilization statistics.
func (s *System) Cluster() *lan.Cluster { return s.cluster }

// Addrs returns the TCP listener addresses of a TCP system (nil otherwise).
func (s *System) Addrs() []string {
	if s.tcpEng == nil {
		return nil
	}
	return s.tcpEng.Addrs()
}

// Close shuts down a real system's daemons and stops what is left of its
// fault plan's schedule (a restart already under way is refused by the
// closed engine). It is a no-op for simulated systems.
func (s *System) Close() {
	for _, t := range s.faultTimers {
		t.Stop()
	}
	if s.chanEng != nil {
		s.chanEng.Close()
	}
	if s.tcpEng != nil {
		s.tcpEng.Close()
	}
}

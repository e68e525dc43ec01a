package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"messengers/internal/bytecode"
	"messengers/internal/logical"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
	"messengers/internal/vm"
	"messengers/internal/wire"
)

// defaultGVTInterval is the period of the conservative GVT synchronization
// rounds — the paper's "continuous periodic exchange of timing information
// among all participating daemons", which it notes "results in a
// significant communication overhead". A paper-era daemon polling period.
const defaultGVTInterval = 25 * sim.Millisecond

// System owns a set of daemons on one engine: the script registry, native
// functions, injection, output collection, and liveness tracking.
type System struct {
	eng         Engine
	topo        *Topology
	daemons     []*Daemon
	reg         registry
	gvtInterval sim.Time
	trace       *obs.Tracer
	metrics     *obs.Metrics
	om          *sysObs
	recCfg      *RecoveryConfig // non-nil enables fault recovery (WithRecovery)
	gate        Gate            // admission gate (SetAdmission); nil outside service mode
	distGVT     bool            // GVT rounds are ring tokens, not a star (WithDistributedGVT)

	// live and injectSeq are atomics, not s.mu fields: every remote hop
	// under recovery and every inject touches them, and on the real engines
	// those arrive from many executors at once — they must not serialize on
	// the mutex that guards output collection. s.mu + cond only mediate the
	// zero-crossing that Wait sleeps on.
	live      atomic.Int64
	injectSeq atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond
	outputs []string
	outW    io.Writer
	errs    []error
	// commits is daemon 0's strictly increasing sequence of installed GVT
	// values — the differential-testing signal that the coordinator and the
	// ring compute the same virtual-time history.
	commits []float64
}

// registry is the system's one copy of loaded code, the paper's shared file
// system: every daemon reads it, through lookup, where it needs a program or
// a native. Its lock is its own; s.mu mediates output and Wait.
type registry struct {
	mu      sync.Mutex
	byHash  map[bytecode.Hash]*bytecode.Program
	byName  map[string]*bytecode.Program
	natives map[string]NativeFunc
}

func lookup[K comparable, V any](r *registry, table map[K]V, k K) (V, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := table[k]
	return v, ok
}

// Option configures a System.
type Option func(*System)

// WithOutput mirrors script print output to w as it happens.
func WithOutput(w io.Writer) Option {
	return func(s *System) { s.outW = w }
}

// WithGVTInterval overrides the conservative synchronizer's round period.
func WithGVTInterval(d sim.Time) Option {
	return func(s *System) { s.gvtInterval = d }
}

// WithDistributedGVT shapes the GVT initiator's rounds as a ring reduction
// instead of the default star through daemon 0 (query/report/advance): a
// token circulates the daemon ring accumulating the global minimum and
// transient counters, then circulates again to commit — two control
// messages per daemon per round, none of them converging on a single host.
// The initiator, its commit rule and advanceGVT are the same under both
// shapes (gvt.go); see docs/GVT.md for the trade-offs.
func WithDistributedGVT() Option {
	return func(s *System) { s.distGVT = true }
}

// WithTracer attaches a tracer: daemons emit messenger-lifecycle, VM
// segment/native, and GVT events onto it, one track per daemon. A nil
// tracer (the default) costs one untaken branch per emission site.
func WithTracer(t *obs.Tracer) Option {
	return func(s *System) { s.trace = t }
}

// WithMetrics attaches a metrics registry: it reads the daemons' Stats
// (lifecycle transitions, hops, segments, GVT rounds), and daemons count
// network sends, recovery events and executed opcodes into it (the
// registry is the single source of truth the bench harness reads).
func WithMetrics(m *obs.Metrics) Option {
	return func(s *System) { s.metrics = m }
}

// sysObs caches the registry instruments the daemons update on hot paths;
// nil when no registry is attached (one branch disables everything). The
// counts Stats keeps are not here: the registry reads them (registerStats).
type sysObs struct {
	injected, zeroCopyHops               *obs.Counter
	gvtTokenHops, gvtCommits             *obs.Counter
	netMsgs, netBytes                    *obs.Counter
	retx, dedup, respawns, adoptions     *obs.Counter
	deaths, restarts, peerDowns, peerUps *obs.Counter
	dispThreaded, dispSwitch             *obs.Counter
	segSteps, msgrBytes, arenaBytes      *obs.Histogram
}

func newSysObs(m *obs.Metrics) *sysObs {
	return &sysObs{
		injected: m.Counter("msgr.injected"),
		// zeroCopyHops counts remote hops whose Messenger state travelled
		// by in-process ownership transfer (no serialization at all).
		zeroCopyHops: m.Counter("msgr.hops.zerocopy"),
		gvtTokenHops: m.Counter("gvt.token.hops"),
		gvtCommits:   m.Counter("gvt.commits"),
		netMsgs:      m.Counter("net.msgs"),
		netBytes:     m.Counter("net.bytes"),
		retx:         m.Counter("msgr.retx"),
		dedup:        m.Counter("msgr.dedup"),
		respawns:     m.Counter("msgr.respawns"),
		adoptions:    m.Counter("logical.adoptions"),
		deaths:       m.Counter("daemon.deaths"),
		restarts:     m.Counter("daemon.restarts"),
		peerDowns:    m.Counter("net.peer.down"),
		peerUps:      m.Counter("net.peer.up"),
		// Dispatch-path accounting: source instructions executed on the
		// token-threaded fast path vs. the switch loop, split from the
		// segment's step count (see docs/VM.md).
		dispThreaded: m.Counter("vm.dispatch.threaded"),
		dispSwitch:   m.Counter("vm.dispatch.switch"),
		segSteps:     m.Histogram("vm.segment.steps"),
		msgrBytes:    m.Histogram("net.msgr.bytes"),
		arenaBytes:   m.Histogram("vm.arena.bytes"),
	}
}

// registerStats makes the registry read the counts the daemons keep in
// Stats, summed over this system's daemons, and the process-wide wire pool
// counters, which a registry shared by several systems reads once.
func (s *System) registerStats(m *obs.Metrics) {
	m.CounterFunc("msgr.arrived", func() int64 { return s.TotalStats().Arrived })
	m.CounterFunc("msgr.creates", func() int64 { return s.TotalStats().Creates })
	m.CounterFunc("msgr.deletes", func() int64 { return s.TotalStats().Deletes })
	m.CounterFunc("msgr.finished", func() int64 { return s.TotalStats().Finished })
	m.CounterFunc("msgr.died", func() int64 { return s.TotalStats().Died })
	m.CounterFunc("msgr.errors", func() int64 { return s.TotalStats().Errors })
	m.CounterFunc("msgr.evicted", func() int64 { return s.TotalStats().Evicted })
	m.CounterFunc("msgr.hops.local", func() int64 { return s.TotalStats().LocalHops })
	m.CounterFunc("msgr.hops.remote", func() int64 { return s.TotalStats().RemoteHops })
	m.CounterFunc("vm.segments", func() int64 { return s.TotalStats().Segments })
	m.CounterFunc("vm.steps", func() int64 { return s.TotalStats().Steps })
	m.CounterFunc("gvt.rounds", func() int64 { return s.TotalStats().GVTRounds })
	m.CounterFunc("gvt.suspends", func() int64 { return s.TotalStats().Suspends })
	m.CounterFunc("gvt.ctl.msgs", func() int64 { return s.TotalStats().GVTCtlMsgs })
	if !m.Has("wire.pool.gets") {
		m.GaugeFunc("wire.pool.gets", func() int64 { return wire.ReadStats().PoolGets })
		m.GaugeFunc("wire.pool.hits", func() int64 { return wire.ReadStats().PoolHits })
		m.GaugeFunc("wire.pool.misses", func() int64 { return wire.ReadStats().PoolMisses })
		m.GaugeFunc("wire.bytes.encoded", func() int64 { return wire.ReadStats().BytesEncoded })
	}
}

// NewSystem creates one daemon per engine slot over the given daemon
// network topology.
func NewSystem(eng Engine, topo *Topology, opts ...Option) *System {
	if topo.NumDaemons() != eng.NumDaemons() {
		panic(fmt.Sprintf("core: topology has %d daemons, engine has %d",
			topo.NumDaemons(), eng.NumDaemons()))
	}
	s := &System{
		eng:  eng,
		topo: topo,
		reg: registry{
			byHash:  map[bytecode.Hash]*bytecode.Program{},
			byName:  map[string]*bytecode.Program{},
			natives: map[string]NativeFunc{},
		},
		gvtInterval: defaultGVTInterval,
	}
	s.cond = sync.NewCond(&s.mu)
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics != nil {
		s.om = newSysObs(s.metrics)
	}
	for i := 0; i < eng.NumDaemons(); i++ {
		s.trace.NameTrack(i, fmt.Sprintf("daemon %d", i))
	}
	s.daemons = make([]*Daemon, eng.NumDaemons())
	for i := range s.daemons {
		s.daemons[i] = newDaemon(i, eng, topo, s)
	}
	if s.metrics != nil {
		s.registerStats(s.metrics)
	}
	if b, ok := eng.(binder); ok {
		b.Bind(s.daemons)
	}
	s.registerSystemNatives()
	return s
}

// registerSystemNatives installs the natives every system provides:
// inject(script[, node]) releases a new Messenger of a registered script
// into the local daemon (the paper's "injected ... by another Messenger").
// Extra arguments are name/value pairs that become the new Messenger's
// initial variables: inject("worker", "init", "limit", 10).
func (s *System) registerSystemNatives() {
	s.reg.natives["inject"] = func(ctx *NativeCtx, args []value.Value) (value.Value, error) {
		if len(args) == 0 || args[0].Kind() != value.KindStr {
			return value.Nil(), fmt.Errorf("inject needs a script name")
		}
		script := args[0].AsStr()
		node := logical.InitName
		rest := args[1:]
		if len(rest) > 0 && rest[0].Kind() == value.KindStr && len(rest)%2 == 1 {
			node = rest[0].AsStr()
			rest = rest[1:]
		}
		if len(rest)%2 != 0 {
			return value.Nil(), fmt.Errorf("inject variables must be name/value pairs")
		}
		vars := make(map[string]value.Value, len(rest)/2)
		for i := 0; i < len(rest); i += 2 {
			if rest[i].Kind() != value.KindStr {
				return value.Nil(), fmt.Errorf("inject variable name must be a string, got %v", rest[i].Kind())
			}
			vars[rest[i].AsStr()] = rest[i+1]
		}
		// The child inherits its parent's local virtual time (it cannot
		// observe or schedule anything before its creation) and its
		// parent's tenant/session, so script-spawned children stay inside
		// the session's quota instead of escaping the books.
		if err := s.injectAt(ctx.DaemonID(), script, node, vars, ctx.LVT(),
			ctx.m.Tenant, ctx.m.Session, 0); err != nil {
			return value.Nil(), err
		}
		return value.Nil(), nil
	}
}

// Engine returns the engine driving this system.
func (s *System) Engine() Engine { return s.eng }

// Tracer returns the attached tracer (nil when tracing is off).
func (s *System) Tracer() *obs.Tracer { return s.trace }

// Metrics returns the attached metrics registry (nil when off).
func (s *System) Metrics() *obs.Metrics { return s.metrics }

// FlushVMProfiles folds each daemon's per-opcode interpreter profile into
// the metrics registry as vm.op.<mnemonic> counters. Call post-run (daemon
// profiles are executor-confined during a run); flushing zeroes the
// per-daemon counts so repeated calls never double-count.
func (s *System) FlushVMProfiles() {
	if s.metrics == nil {
		return
	}
	for _, d := range s.daemons {
		if d.prof == nil {
			continue
		}
		for op, n := range d.prof.Counts {
			if n > 0 {
				//lint:obsname one name per opcode mnemonic, a closed set
				s.metrics.Counter("vm.op." + vm.OpName(op)).Add(n)
				d.prof.Counts[op] = 0
			}
		}
	}
}

// Daemon returns daemon i for post-run inspection. During a run its state
// must only be touched from its executor (use Do).
func (s *System) Daemon(i int) *Daemon { return s.daemons[i] }

// NumDaemons returns the daemon count.
func (s *System) NumDaemons() int { return len(s.daemons) }

// Do runs fn with daemon d on its executor (asynchronously).
func (s *System) Do(d int, fn func(*Daemon)) {
	s.eng.Exec(d, 0, func() { fn(s.daemons[d]) })
}

// RegisterNative makes a native-mode function available to all daemons;
// like Register it is synchronous and safe beside running Messengers.
func (s *System) RegisterNative(name string, fn NativeFunc) {
	s.reg.mu.Lock()
	s.reg.natives[name] = fn
	s.reg.mu.Unlock()
}

// Register installs a compiled script in the system's registry (the
// shared-file-system model of the paper: daemons load code from one place
// and Messengers never carry it). It is safe from any goroutine, and once
// it returns an arrival on any daemon finds the program.
func (s *System) Register(p *bytecode.Program) {
	h := p.Hash() // hashed ahead of the lock: lookups never wait on an encode
	s.reg.mu.Lock()
	s.reg.byHash[h] = p
	s.reg.byName[p.Name] = p
	s.reg.mu.Unlock()
}

// Program returns a registered program by name.
func (s *System) Program(name string) (*bytecode.Program, bool) {
	return lookup(&s.reg, s.reg.byName, name)
}

// Inject releases a new Messenger of the named script into daemon d's init
// node, with optional initial Messenger variables — the paper's "any
// Messenger may be injected (from the shell or by another Messenger) into
// any of the init nodes".
func (s *System) Inject(d int, script string, vars map[string]value.Value) error {
	return s.InjectAt(d, script, logical.InitName, vars)
}

// InjectAt injects at a named logical node of daemon d (first node with
// that name; init when absent).
func (s *System) InjectAt(d int, script, node string, vars map[string]value.Value) error {
	return s.injectAt(d, script, node, vars, 0, "", 0, 0)
}

func (s *System) injectAt(d int, script, node string, vars map[string]value.Value,
	lvt float64, tenant string, session uint64, budget int64) error {
	prog, ok := s.Program(script)
	if !ok {
		return fmt.Errorf("core: script %q not registered", script)
	}
	return s.injectProg(d, prog, node, vars, lvt, tenant, session, budget)
}

func (s *System) injectProg(d int, prog *bytecode.Program, node string, vars map[string]value.Value,
	lvt float64, tenant string, session uint64, budget int64) error {
	if d < 0 || d >= len(s.daemons) {
		return fmt.Errorf("core: no daemon %d", d)
	}
	fresh := vm.New(prog, value.CloneEnv(vars))
	seq := s.injectSeq.Add(1)
	msg := &Msg{
		Kind:       MsgInject,
		From:       d,
		ProgHash:   prog.Hash(),
		XferVM:     fresh,
		MsgrID:     1<<63 | seq, // top bit marks injected Messengers
		LVT:        lvt,
		CreateName: node,
		Tenant:     tenant,
		Session:    session,
		Budget:     budget,
	}
	s.sessionWork(tenant, session, 1)
	dae := s.daemons[d]
	s.eng.Exec(d, 0, func() { dae.HandleMsg(msg) })
	return nil
}

// --- liveness tracking ---

func (s *System) workAdded(n int) {
	if n == 0 {
		return
	}
	s.live.Add(int64(n))
}

func (s *System) workDone(n int) {
	v := s.live.Add(-int64(n))
	if v < 0 {
		panic("core: live work count went negative")
	}
	if v == 0 {
		// Broadcast under s.mu so a concurrent Wait cannot check the count
		// and sleep between our decrement and the signal.
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// Live returns the number of live Messengers plus in-flight transfers.
func (s *System) Live() int64 { return s.live.Load() }

// Wait blocks until no live Messengers or in-flight transfers remain (real
// engines; on the simulated engine run the kernel instead).
func (s *System) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.live.Load() > 0 {
		s.cond.Wait()
	}
}

// --- output and errors ---

func (s *System) print(daemon int, line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outputs = append(s.outputs, line)
	if s.outW != nil {
		fmt.Fprintf(s.outW, "[d%d] %s\n", daemon, line)
	}
}

// Output returns all print output so far.
func (s *System) Output() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.outputs))
	copy(out, s.outputs)
	return out
}

func (s *System) recordError(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errs = append(s.errs, err)
}

// Errors returns runtime errors that destroyed Messengers.
func (s *System) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]error, len(s.errs))
	copy(out, s.errs)
	return out
}

// recordCommit logs a GVT value installed on daemon 0. advanceGVT already
// guarantees strict monotonicity, so the log is the sequence of distinct
// global-virtual-time frontiers the run committed.
func (s *System) recordCommit(gvt float64) {
	s.mu.Lock()
	s.commits = append(s.commits, gvt)
	s.mu.Unlock()
}

// CommitLog returns daemon 0's strictly increasing sequence of committed
// GVT values. Both wave shapes feed it through the same advanceGVT, so
// differential tests can assert the coordinator star and the ring agree on
// the entire virtual-time history of a run.
func (s *System) CommitLog() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.commits))
	copy(out, s.commits)
	return out
}

// TotalStats sums every Stats field over the daemons. The loads are
// atomic, so it may be called mid-run.
func (s *System) TotalStats() Stats {
	var t Stats
	for _, d := range s.daemons {
		st := &d.Stats
		t.Arrived += atomic.LoadInt64(&st.Arrived)
		t.Segments += atomic.LoadInt64(&st.Segments)
		t.Steps += atomic.LoadInt64(&st.Steps)
		t.LocalHops += atomic.LoadInt64(&st.LocalHops)
		t.RemoteHops += atomic.LoadInt64(&st.RemoteHops)
		t.Creates += atomic.LoadInt64(&st.Creates)
		t.Deletes += atomic.LoadInt64(&st.Deletes)
		t.Finished += atomic.LoadInt64(&st.Finished)
		t.Died += atomic.LoadInt64(&st.Died)
		t.Errors += atomic.LoadInt64(&st.Errors)
		t.Evicted += atomic.LoadInt64(&st.Evicted)
		t.GVTRounds += atomic.LoadInt64(&st.GVTRounds)
		t.Suspends += atomic.LoadInt64(&st.Suspends)
		t.GVTCtlMsgs += atomic.LoadInt64(&st.GVTCtlMsgs)
		t.GVTRoundTime += sim.Time(atomic.LoadInt64((*int64)(&st.GVTRoundTime)))
	}
	return t
}

// --- net_builder service ---

// NetNode declares one logical node of a static network.
type NetNode struct {
	Name   string
	Daemon int
}

// NetLink declares a link between two declared nodes. Dir 0 is undirected,
// 1 directs A -> B, 2 directs B -> A.
type NetLink struct {
	A, B string
	Name string
	Dir  uint8
}

// NetSpec is a static logical-network description, the input to the
// net_builder service (the paper's tool that reads a topology file and
// creates the corresponding logical network).
type NetSpec struct {
	Nodes []NetNode
	Links []NetLink
}

// BuildNetwork constructs the described logical network directly in the
// daemons' stores. It must be called while the system is quiescent (before
// any Messenger is injected), which is how the paper's net_builder is used
// to lay down the application's static "exogenous skeleton".
func (s *System) BuildNetwork(spec NetSpec) error {
	byName := make(map[string]struct {
		d *Daemon
		n *logical.Node
	}, len(spec.Nodes))
	for _, nn := range spec.Nodes {
		if nn.Daemon < 0 || nn.Daemon >= len(s.daemons) {
			return fmt.Errorf("core: net node %q on unknown daemon %d", nn.Name, nn.Daemon)
		}
		if _, dup := byName[nn.Name]; dup {
			return fmt.Errorf("core: duplicate net node name %q", nn.Name)
		}
		d := s.daemons[nn.Daemon]
		byName[nn.Name] = struct {
			d *Daemon
			n *logical.Node
		}{d, d.store.CreateNode(nn.Name)}
	}
	for _, l := range spec.Links {
		a, okA := byName[l.A]
		b, okB := byName[l.B]
		if !okA || !okB {
			return fmt.Errorf("core: link %q references unknown node (%q - %q)", l.Name, l.A, l.B)
		}
		id := a.d.store.NewLinkID()
		directed := l.Dir != 0
		a.d.store.AttachHalf(a.n, id, l.Name, directed, l.Dir == 1, b.d.store.Addr(b.n), b.n.Name)
		b.d.store.AttachHalf(b.n, id, l.Name, directed, l.Dir == 2, a.d.store.Addr(a.n), a.n.Name)
	}
	return nil
}

// ReadNodeVars returns a deep copy of a named node's variables (post-run
// inspection).
func (s *System) ReadNodeVars(daemon int, nodeName string) (map[string]value.Value, bool) {
	nodes := s.daemons[daemon].store.FindByName(nodeName)
	if len(nodes) == 0 {
		return nil, false
	}
	return value.CloneEnv(nodes[0].Vars), true
}

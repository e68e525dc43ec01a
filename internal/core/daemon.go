package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"messengers/internal/lan"
	"messengers/internal/logical"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
	"messengers/internal/vm"
)

// maxSegmentSteps bounds a single uninterrupted VM segment (runaway guard).
const maxSegmentSteps = 1 << 30

// Messenger is one autonomous self-migrating computation: its VM state,
// the logical node it currently occupies, the link it arrived by ($last),
// and its local virtual time.
type Messenger struct {
	ID   uint64
	VM   *vm.VM
	Node logical.NodeID
	Last string
	LVT  float64

	// Tenant and Session identify the admission account this Messenger is
	// charged to (empty/zero outside service mode); the tags travel on the
	// wire and survive hops, clones, and recovery respawn. gate is the
	// resolved per-session quota gate — daemon-local scheduling state,
	// re-resolved wherever the Messenger materializes.
	Tenant  string
	Session uint64
	gate    SessionGate

	// host is the vm.Host of the segment in progress, rebound by step; it
	// lives here so a segment allocates no adapter.
	host msgrHost

	// paused: its last segment ended in the pause next holds (with a
	// sched_dlt's wake made absolute), and the MsgStep pending for it acts
	// on that (resume). A Messenger not paused runs its next segment.
	paused bool
	next   vm.Result
}

// NativeFunc is a registered native-mode function (the paper's dynamically
// loaded precompiled C functions). Natives run uninterrupted on the
// daemon's executor; they may touch the current node's variables through
// ctx and report their modeled cost with ctx.Charge.
type NativeFunc func(ctx *NativeCtx, args []value.Value) (value.Value, error)

// NativeCtx gives a native function access to its execution environment.
type NativeCtx struct {
	d      *Daemon
	m      *Messenger
	node   *logical.Node
	charge sim.Time
}

// DaemonID returns the executing daemon's ID.
func (c *NativeCtx) DaemonID() int { return c.d.id }

// Model returns the simulation cost model, or nil on real engines.
func (c *NativeCtx) Model() *lan.CostModel { return c.d.eng.Model() }

// HostSpec describes the host this daemon occupies.
func (c *NativeCtx) HostSpec() lan.HostSpec { return c.d.eng.HostSpec(c.d.id) }

// Charge adds modeled CPU cost (110 MHz-calibrated) for this invocation.
func (c *NativeCtx) Charge(t sim.Time) { c.charge += t }

// NodeVar reads a variable of the current logical node.
func (c *NativeCtx) NodeVar(name string) value.Value { return c.node.Vars[name] }

// SetNodeVar writes a variable of the current logical node.
func (c *NativeCtx) SetNodeVar(name string, v value.Value) { c.node.Vars[name] = v }

// NodeName returns the current logical node's name.
func (c *NativeCtx) NodeName() string { return c.node.Name }

// LVT returns the invoking Messenger's local virtual time.
func (c *NativeCtx) LVT() float64 { return c.m.LVT }

// Stats counts daemon activity over a run (reported in EXPERIMENTS.md).
// These are the counts themselves: the registry's msgr.*, vm.segments/steps
// and gvt.rounds/suspends/ctl.msgs counters read them (registerStats).
// The daemon's executor is the only writer, and it writes with atomic adds,
// so a reader may load them atomically mid-run.
type Stats struct {
	Arrived    int64 // Messengers received from other daemons
	Segments   int64 // VM segments executed
	Steps      int64 // VM instructions interpreted
	LocalHops  int64
	RemoteHops int64
	Creates    int64 // logical nodes created here
	Deletes    int64 // links deleted here
	Finished   int64 // Messengers that terminated here
	Died       int64 // Messengers with zero matching destinations
	Errors     int64 // Messengers destroyed by runtime errors
	Evicted    int64 // Messengers destroyed by tenant quota enforcement
	GVTRounds  int64 // GVT rounds initiated (daemon 0 only)
	Suspends   int64 // virtual-time suspensions

	// GVTCtlMsgs counts GVT control messages this daemon put on the wire
	// (self-sends excluded); GVTRoundTime accumulates engine time from
	// round launch to completion (daemon 0 only). Together they are the
	// scale experiment's signal: ring rounds send ≤2 per daemon with O(1)
	// through daemon 0, the coordinator 3 per daemon, all through daemon 0.
	GVTCtlMsgs   int64
	GVTRoundTime sim.Time
}

// Daemon is one MESSENGERS daemon: the interpreter process resident on one
// host. All daemon state is confined to its executor; the engine guarantees
// Exec/HandleMsg callbacks for one daemon never run concurrently.
//
// Its own fields are what the process's death keeps; what it loses is the
// embedded volatile part, which a crash replaces whole (docs/FAULTS.md).
type Daemon struct {
	// Stats is the first field, so its int64s are 64-bit aligned for atomic
	// access on 32-bit platforms too.
	Stats Stats

	id   int
	eng  Engine
	cm   *lan.CostModel // the engine's, or noCosts on real engines
	topo *Topology
	sys  *System

	// nextMsgrID and nextSeq (recovery's HopSeq) only grow, the stand-in for
	// a fresh process's unique IDs: a restarted daemon reuses neither.
	nextMsgrID uint64
	nextSeq    uint64
	rr         int // create's round-robin cursor: it only spreads placement

	initiator *gvtInitiator // non-nil on daemon 0, which runs the GVT rounds

	// out is the slot a message built as a value leaves through (sendOut,
	// depart, next, timer): the engine copies or encodes it before Send,
	// Exec or SetTimer returns, so the slot is free again at once.
	out Msg

	// berths are spent VMs kept for their storage: fed where this daemon
	// has just serialised a departing Messenger, drained by restore. At most
	// maxBerths. They survive a crash: a berth holds storage, no Value.
	berths []*vm.Berth
	// flush is the engine's Flush when it buffers outbound frames (TCP).
	flush flusher

	// Fault recovery: downFlag marks a crashed daemon; epoch counts
	// incarnations so that continuations and timers scheduled before a
	// crash are orphaned (HandleMsg).
	downFlag atomic.Bool
	epoch    uint32

	// Observability: tr/om are nil when tracing/metrics are off (one
	// branch per site); prof is this daemon's interpreter profile.
	tr   *obs.Tracer
	om   *sysObs
	prof *vm.Profile

	volatile
}

// volatile is what a daemon process loses when it dies: the logical
// network, the Messengers, the GVT and recovery books and the initiator's
// open round. A new daemon and a restarted one start from newVolatile.
type volatile struct {
	store *logical.Store

	// Conservative GVT state.
	gvt        float64
	waitQ      sim.Heap[wakeEntry]   // suspended Messengers
	active     map[uint64]*Messenger // live, runnable Messengers
	sent, recv int64
	notified   bool
	renotifyOn bool // dedups the suspended-Messenger renotification timer

	rec   *recovery // nil unless the system was built WithRecovery
	round gvtRound  // daemon 0's open GVT round (gvtInitiator)
}

// newVolatile is daemon d's state as a fresh process has it.
func newVolatile(d *Daemon) volatile {
	v := volatile{store: logical.NewStore(d.id), active: map[uint64]*Messenger{}}
	if d.sys.recCfg != nil {
		n := d.eng.NumDaemons()
		v.rec = &recovery{
			pending:   map[uint64]*retxEntry{},
			seen:      make([]map[uint64]struct{}, n),
			evictedTo: make([]uint64, n),
			peerDead:  make([]bool, n),
			adopted:   map[logical.Addr]logical.NodeID{},
			sentTo:    make([]int64, n),
			recvFrom:  make([]int64, n),
		}
	}
	return v
}

// noCosts is the cost model of a real engine, where work takes the time it
// takes.
var noCosts lan.CostModel

func newDaemon(id int, eng Engine, topo *Topology, sys *System) *Daemon {
	d := &Daemon{
		id:   id,
		eng:  eng,
		cm:   eng.Model(),
		topo: topo,
		sys:  sys,
		tr:   sys.trace,
		om:   sys.om,
	}
	d.volatile = newVolatile(d)
	if d.cm == nil {
		d.cm = &noCosts
	}
	if sys.metrics != nil {
		d.prof = &vm.Profile{}
	}
	if id == 0 {
		d.initiator = &gvtInitiator{d: d, ring: sys.distGVT, gvtRound: &d.round}
		if !sys.distGVT {
			d.initiator.reports = make([]gvtReport, eng.NumDaemons())
		}
	}
	d.flush, _ = eng.(flusher)
	return d
}

// Store exposes the logical-network store (inspection and the net-builder
// service; must only be touched from the daemon's executor).
func (d *Daemon) Store() *logical.Store { return d.store }

// next schedules m's next step (resume) on this daemon after cost of its
// CPU, stamped with this incarnation.
func (d *Daemon) next(m *Messenger, cost sim.Time) {
	d.out = Msg{Kind: MsgStep, inc: d.epoch, MsgrID: m.ID}
	d.eng.Exec(d.id, cost, &d.out)
}

// timer delivers msg, a scheduled kind, to this daemon after delay of
// engine time, stamped with this incarnation.
func (d *Daemon) timer(delay sim.Time, msg Msg) {
	d.out = msg
	d.out.inc = d.epoch
	d.eng.SetTimer(d.id, delay, &d.out)
}

// msgrID renders a Messenger ID for trace arguments, unpacking the
// allocation scheme (top bit: injected; else daemon<<40 | seq) so the
// trace shows "inj-3" or "d2-17" instead of a raw 64-bit pattern.
func msgrID(id uint64) obs.Field {
	if id>>63 == 1 {
		return obs.S("msgr", fmt.Sprintf("inj-%d", id&(1<<63-1)))
	}
	return obs.S("msgr", fmt.Sprintf("d%d-%d", id>>40, id&(1<<40-1)))
}

// netSend ships a message to another daemon, accounting wire traffic. An
// engine that serialises a Messenger on Send (TCP) clears XferVM, and the
// daemon keeps the VM's storage.
func (d *Daemon) netSend(dst int, msg *Msg) {
	if d.om != nil {
		d.om.netMsgs.Inc()
		d.om.netBytes.Add(int64(msg.WireSize()))
	}
	mvm := msg.XferVM
	d.eng.Send(d.id, dst, msg)
	if mvm != nil && msg.XferVM == nil {
		d.ParkVM(mvm)
	}
}

// sendOut ships a message built as a value through the daemon's outgoing
// slot, so sending it allocates nothing.
func (d *Daemon) sendOut(dst int, msg Msg) {
	d.out = msg
	d.netSend(dst, &d.out)
}

// maxBerths bounds the free list of spent VMs: the depth of a burst of
// departures a daemon can turn into arrivals without allocating, and the
// most storage an idle daemon pins (a berth holds no Value, only slabs
// sized by its program's verifier proof).
const maxBerths = 8

// ParkVM takes a VM whose state has just been serialised (the Messenger
// left in a frame or a retained snapshot) and keeps its storage for the
// next arrival. It runs on the daemon's executor; mvm must not be used
// afterwards.
func (d *Daemon) ParkVM(mvm *vm.VM) {
	if len(d.berths) < maxBerths {
		d.berths = append(d.berths, mvm.Release())
	}
}

// endKind is how a Messenger's life ended. It picks the end's Stats field,
// registry counter and msgr trace instant.
type endKind uint8

const (
	endFinish endKind = iota // ran past its program's last statement
	endDie                   // no destination matched, or its node was deleted under it
	endError                 // a runtime error, or a snapshot that would not restore or serialise
	endEvict                 // its session's quota tripped
	numEnds
)

// endNames are the ends' msgr trace instants.
var endNames = [numEnds]string{endFinish: "terminate", endDie: "die", endError: "error", endEvict: "evict"}

// end retires Messenger id, resident here or still in the message that
// carried it: the one place a Messenger's life ends. It counts and traces
// the end, tells the session's gate of an eviction, records an error and
// releases the Messenger's liveness slot. An eviction is not recorded as an
// error: quota enforcement is expected under load, reported through metrics
// and the gate, not a program bug.
func (d *Daemon) end(id uint64, tenant string, session uint64, gate SessionGate, how endKind, err error) {
	switch how {
	case endFinish:
		atomic.AddInt64(&d.Stats.Finished, 1)
	case endDie:
		atomic.AddInt64(&d.Stats.Died, 1)
	case endError:
		atomic.AddInt64(&d.Stats.Errors, 1)
	case endEvict:
		atomic.AddInt64(&d.Stats.Evicted, 1)
	}
	if d.tr != nil {
		if err != nil {
			d.tr.Instant(d.id, "msgr", endNames[how], msgrID(id), obs.S("err", err.Error()))
		} else {
			d.tr.Instant(d.id, "msgr", endNames[how], msgrID(id))
		}
	}
	if how == endEvict && gate != nil {
		gate.Evicted(err)
	}
	delete(d.active, id)
	if how == endError {
		d.sys.errs.Add(fmt.Errorf("daemon %d, messenger %d: %w", d.id, id, err))
	}
	d.sys.sessionWork(tenant, session, -1)
}

// resident makes a Messenger resident on this daemon. It is the type's one
// constructor: for a Messenger restored from an arrival, a create or an
// injection, and for a replica that hops or creates locally.
func (d *Daemon) resident(id uint64, mvm *vm.VM, node logical.NodeID, last string, lvt float64,
	tenant string, session uint64, gate SessionGate) *Messenger {
	m := &Messenger{ID: id, VM: mvm, Node: node, Last: last, LVT: lvt,
		Tenant: tenant, Session: session, gate: gate}
	d.active[id] = m
	return m
}

// resume takes m's next step: its next segment, or what its last one
// paused for.
func (d *Daemon) resume(m *Messenger) {
	switch {
	case !m.paused:
		d.step(m)
	case m.next.Pause == vm.PauseEnd:
		d.end(m.ID, m.Tenant, m.Session, m.gate, endFinish, nil)
	case m.next.Pause == vm.PauseSchedAbs || m.next.Pause == vm.PauseSchedDlt:
		d.suspend(m, m.next.Time)
	default:
		d.navigate(m)
	}
}

// step executes the Messenger's next VM segment on this daemon. Must run on
// the daemon's executor.
func (d *Daemon) step(m *Messenger) {
	m.paused = false
	node, ok := d.store.Node(m.Node)
	if !ok {
		// The node was deleted while the Messenger was in flight.
		d.end(m.ID, m.Tenant, m.Session, m.gate, endDie, nil)
		return
	}
	if d.flush != nil {
		// Frames sent earlier in this executor run wait behind other sends
		// only, never behind computation: a segment, or the native call it
		// pauses for, may run long.
		d.flush.Flush(d.id)
	}
	m.host = msgrHost{d: d, m: m, node: node}
	m.VM.SetProfile(d.prof)
	m.VM.SetMeter(m.gate)
	var segStart int64
	if d.tr != nil {
		segStart = int64(d.eng.Now())
	}
	res, err := m.VM.Run(&m.host, maxSegmentSteps)
	if err != nil {
		how := endError
		if errors.Is(err, vm.ErrStepBudget) {
			how = endEvict
		}
		d.end(m.ID, m.Tenant, m.Session, m.gate, how, err)
		return
	}
	atomic.AddInt64(&d.Stats.Segments, 1)
	atomic.AddInt64(&d.Stats.Steps, res.Steps)
	cost := sim.Time(res.Steps) * d.cm.PerInstr
	if d.om != nil {
		d.om.segSteps.Observe(res.Steps)
		threaded := m.VM.ThreadedSteps()
		d.om.dispThreaded.Add(threaded)
		d.om.dispSwitch.Add(res.Steps - threaded)
		d.om.arenaBytes.Observe(m.VM.ArenaBytes())
	}
	if d.tr != nil {
		// Simulated engines: the span covers the modeled CPU cost from the
		// current instant. Real engines: the measured wall time of the run.
		start, dur := int64(d.eng.Now()), int64(cost)
		if dur == 0 {
			start, dur = segStart, int64(d.eng.Now())-segStart
		}
		d.tr.Span(d.id, "vm", "segment", start, dur,
			msgrID(m.ID), obs.I("steps", res.Steps), obs.S("pause", res.Pause.String()))
	}

	switch res.Pause {
	case vm.PauseNative:
		fn, ok := lookup(&d.sys.reg, d.sys.reg.natives, res.Native)
		if !ok {
			d.end(m.ID, m.Tenant, m.Session, m.gate, endError, fmt.Errorf("unknown native function %q", res.Native))
			return
		}
		ctx := &NativeCtx{d: d, m: m, node: node}
		var natStart int64
		if d.tr != nil {
			natStart = int64(d.eng.Now())
		}
		v, err := fn(ctx, res.Args)
		if err != nil {
			d.end(m.ID, m.Tenant, m.Session, m.gate, endError, fmt.Errorf("native %s: %w", res.Native, err))
			return
		}
		m.VM.PushResult(v)
		natCost := ctx.charge + d.cm.CallFixed
		if d.tr != nil {
			start, dur := int64(d.eng.Now()), int64(natCost)
			if dur == 0 {
				start, dur = natStart, int64(d.eng.Now())-natStart
			}
			d.tr.Span(d.id, "vm", "native:"+res.Native, start, dur, msgrID(m.ID))
		}
		cost += natCost
	default:
		m.paused, m.next = true, res
		switch res.Pause {
		case vm.PauseHop, vm.PauseDelete, vm.PauseCreate:
			cost += d.cm.MsgrHopFixed
		case vm.PauseSchedDlt:
			m.next.Time += m.LVT
		}
	}
	d.next(m, cost)
}

// navigate resolves the hop, delete or create m paused for: it finds the
// destinations, charges m's session for them, and sends a replica of m to
// each, clones to all but the last, which takes m's own VM. With no
// destination, or with its node deleted under it, m dies.
func (d *Daemon) navigate(m *Messenger) {
	node, ok := d.store.Node(m.Node)
	if !ok {
		d.end(m.ID, m.Tenant, m.Session, m.gate, endDie, nil)
		return
	}
	pause, arms, all := m.next.Pause, m.next.Arms, m.next.All
	var matches []logical.Match
	var targets []createTarget
	if pause == vm.PauseCreate {
		targets = d.createTargets(arms, all)
	} else {
		for _, arm := range arms {
			ms := d.store.Match(node, navString(arm.LN), navString(arm.LL), navString(arm.LDir))
			matches = append(matches, ms...)
		}
	}
	n := len(matches) + len(targets)
	if n == 0 {
		d.end(m.ID, m.Tenant, m.Session, m.gate, endDie, nil)
		return
	}
	if d.rec != nil {
		// Retransmission can reorder a MsgCreateAck behind a Messenger that
		// already traversed the new link, so a remote destination may still
		// be the unresolved placeholder (node 0). Defer the whole hop until
		// the ack lands or the peer is declared dead (either resolves it).
		for _, match := range matches {
			if match.Dest.Daemon != d.id && match.Dest.Node == 0 && !d.rec.peerDead[match.Dest.Daemon] {
				d.timer(d.sys.recCfg.AckTimeout/2, Msg{Kind: MsgStep, MsgrID: m.ID})
				return
			}
		}
	}
	if !d.chargeNav(m, n) {
		return
	}
	isDelete := pause == vm.PauseDelete
	if isDelete {
		// Remove the local half of every traversed link now; the remote
		// halves are removed when the replicas arrive.
		for _, match := range matches {
			if match.Link != nil {
				d.store.DetachHalf(node, match.Link.ID)
				atomic.AddInt64(&d.Stats.Deletes, 1)
			}
		}
	}
	clones := n - 1
	d.sys.sessionWork(m.Tenant, m.Session, clones)
	delete(d.active, m.ID)
	for i := 0; i < n; i++ {
		mvm := m.VM
		if i < clones {
			mvm = m.VM.Clone()
		}
		if pause == vm.PauseCreate {
			d.createAt(m, mvm, node, targets[i])
			continue
		}
		match := matches[i]
		var removeLink logical.LinkID
		if isDelete && match.Link != nil {
			removeLink = match.Link.ID
		}
		d.hopTo(m, mvm, match.Dest, match.Via, removeLink)
	}
}

// hopTo sends one replica of m over a link to dest: resident here, or
// departed to dest's daemon.
func (d *Daemon) hopTo(m *Messenger, mvm *vm.VM, dest logical.Addr, via string, removeLink logical.LinkID) {
	if dest.Daemon == d.id {
		atomic.AddInt64(&d.Stats.LocalHops, 1)
		nm := d.resident(d.newMsgrID(), mvm, dest.Node, via, m.LVT, m.Tenant, m.Session, m.gate)
		if d.tr != nil {
			d.tr.Instant(d.id, "msgr", "hop.local", msgrID(nm.ID))
		}
		if removeLink != (logical.LinkID{}) {
			if n, ok := d.store.Node(dest.Node); ok {
				d.store.DetachHalf(n, removeLink)
			}
		}
		d.next(nm, d.cm.CallFixed)
		return
	}
	atomic.AddInt64(&d.Stats.RemoteHops, 1)
	msg := Msg{Kind: MsgMessenger, DestNode: dest.Node, Last: via, RemoveLink: removeLink}
	// Under the shared-code registry (the paper's shared-file-system
	// optimization) only the hash travels; the A4 ablation disables the
	// registry cache and ships the bytecode with every hop.
	if cm := d.eng.Model(); cm != nil && !cm.MsgrCodeCached {
		msg.ProgBytes = mvm.Program().Encode()
	}
	d.depart(m, mvm, dest.Daemon, msg)
}

// createTarget is one node a create makes: the arm that names it and the
// daemon it is made on.
type createTarget struct {
	arm    vm.NavArm
	daemon int
}

// createTargets chooses the daemons a create's arms make their nodes on:
// every matching daemon under ALL, else one by round-robin.
func (d *Daemon) createTargets(arms []vm.NavArm, all bool) []createTarget {
	var targets []createTarget
	for _, arm := range arms {
		cands := d.topo.MatchDaemons(d.id, arm.DN, arm.DL, arm.DDir)
		if len(cands) == 0 {
			continue
		}
		if all {
			for _, td := range cands {
				targets = append(targets, createTarget{arm: arm, daemon: td})
			}
		} else {
			td := cands[d.rr%len(cands)]
			d.rr++
			targets = append(targets, createTarget{arm: arm, daemon: td})
		}
	}
	return targets
}

// createAt makes one new node on tg's daemon, linked to node, and sends a
// replica of m into it.
func (d *Daemon) createAt(m *Messenger, mvm *vm.VM, node *logical.Node, tg createTarget) {
	linkName := navCreateName(tg.arm.LL)
	nodeName := navCreateName(tg.arm.LN)
	dir := createDir(tg.arm.LDir)
	linkID := d.store.NewLinkID()
	directed := dir != 0
	// Attach the origin half now. For a remote create the peer node ID is
	// unknown until the ack arrives (see MsgCreateAck); FIFO delivery
	// guarantees the ack precedes any Messenger returning over this link.
	if tg.daemon == d.id {
		nn := d.store.CreateNode(nodeName)
		atomic.AddInt64(&d.Stats.Creates, 1)
		if d.tr != nil {
			d.tr.Instant(d.id, "msgr", "create.local", msgrID(m.ID), obs.S("node", nn.Name))
		}
		d.store.AttachHalf(node, linkID, linkName, directed, dir == 1, d.store.Addr(nn), nn.Name)
		h := d.store.AttachHalf(nn, linkID, linkName, directed, dir == 2, d.store.Addr(node), node.Name)
		d.next(d.resident(d.newMsgrID(), mvm, nn.ID, logical.LastName(h), m.LVT, m.Tenant, m.Session, m.gate), d.cm.CallFixed)
		return
	}
	d.store.AttachHalf(node, linkID, linkName, directed, dir == 1,
		logical.Addr{Daemon: tg.daemon}, nodeName)
	// Unlike a hop, a create departs with only the program hash even in the
	// A4 ablation: create(ALL) runs once per worker there, and code aboard
	// creates would change what the ablation measures.
	d.depart(m, mvm, tg.daemon, Msg{Kind: MsgCreate, CreateName: nodeName,
		LinkID: linkID, LinkName: linkName, LinkDir: dir,
		Origin: d.store.Addr(node), OriginName: node.Name})
}

// depart sends a replica of m to daemon to. msg holds what its kind needs
// (a hop's destination, a create's link); depart stamps the Messenger on
// it, samples its size and ships it through the outgoing slot.
func (d *Daemon) depart(m *Messenger, mvm *vm.VM, to int, msg Msg) {
	d.out = msg
	out := &d.out
	out.From = d.id
	out.ProgHash = mvm.Program().Hash()
	out.XferVM = mvm
	out.MsgrID = d.newMsgrID()
	out.LVT = m.LVT
	out.Tenant, out.Session = m.Tenant, m.Session
	if d.om != nil {
		d.om.msgrBytes.Observe(int64(out.SnapshotLen()))
	}
	if d.tr != nil {
		name := "hop.depart"
		if out.Kind == MsgCreate {
			name = "create.depart"
		}
		d.tr.Instant(d.id, "msgr", name,
			msgrID(out.MsgrID), obs.I("to", int64(to)), obs.I("bytes", int64(out.WireSize())))
	}
	d.ship(to, out)
}

// navCreateName renders a create name: "~" and wildcards become unnamed.
func navCreateName(v value.Value) string {
	s := navString(v)
	if s == "*" || s == "~" {
		return ""
	}
	return s
}

// createDir maps a create ldir to 0 (undirected), 1 (origin->new), or
// 2 (new->origin).
func createDir(v value.Value) uint8 {
	switch navString(v) {
	case "+":
		return 1
	case "-":
		return 2
	default:
		return 0
	}
}

func (d *Daemon) newMsgrID() uint64 {
	d.nextMsgrID++
	return uint64(d.id)<<40 | d.nextMsgrID
}

// suspend parks a Messenger until global virtual time reaches wake.
func (d *Daemon) suspend(m *Messenger, wake float64) {
	if wake <= d.gvt {
		// The requested time has already been reached globally; continue
		// immediately (virtual time never runs backwards).
		if wake > m.LVT {
			m.LVT = wake
		}
		d.step(m)
		return
	}
	atomic.AddInt64(&d.Stats.Suspends, 1)
	if d.tr != nil {
		d.tr.Instant(d.id, "gvt", "suspend", msgrID(m.ID), obs.F("wake", wake))
	}
	delete(d.active, m.ID)
	d.waitQ.Push(wakeEntry{at: wake, m: m}, wakeBefore)
	if !d.notified {
		d.notified = true
		d.sendGVT(0, Msg{Kind: MsgGVTNotify, From: d.id})
	}
	d.armRenotify()
}

// sendGVT routes a GVT control message, short-circuiting self-sends. A
// self-send lends HandleMsg a local copy, not the outgoing slot, which
// HandleMsg may send through before it returns; the copy is made in its
// branch so that, should it ever escape, only self-sends allocate.
func (d *Daemon) sendGVT(dst int, msg Msg) {
	if dst == d.id {
		self := msg
		d.HandleMsg(&self)
		return
	}
	atomic.AddInt64(&d.Stats.GVTCtlMsgs, 1)
	d.sendOut(dst, msg)
}

// localMin is this daemon's lower bound on any future virtual-time event it
// can generate: the earliest suspended wake-up and the LVTs of all runnable
// Messengers.
func (d *Daemon) localMin() float64 {
	min := math.Inf(1)
	if len(d.waitQ) > 0 {
		min = d.waitQ[0].at
	}
	//lint:maporder min over values is order-independent
	for _, m := range d.active {
		if m.LVT < min {
			min = m.LVT
		}
	}
	return min
}

// advanceGVT installs a new global virtual time and releases every
// Messenger whose wake time has been reached.
func (d *Daemon) advanceGVT(gvt float64) {
	if gvt <= d.gvt {
		return
	}
	d.gvt = gvt
	if d.id == 0 {
		d.sys.recordCommit(gvt)
	}
	if d.tr != nil {
		d.tr.Instant(d.id, "gvt", "gvt.advance", obs.F("gvt", gvt))
	}
	if d.rec != nil {
		d.releaseFossils()
	}
	for len(d.waitQ) > 0 && d.waitQ[0].at <= gvt {
		e := d.waitQ.Pop(wakeBefore)
		m := e.m
		if e.at > m.LVT {
			m.LVT = e.at
		}
		m.paused = false
		d.active[m.ID] = m
		d.next(m, 0)
	}
	if len(d.waitQ) == 0 {
		d.notified = false
	}
}

// HandleMsg acts on one message, from a peer or the daemon's own: the
// daemon's one entry point. The engine invokes it on this daemon's
// executor, and it borrows msg for the call. A message it drops unread
// gives back the liveness slot its kind holds, whatever the reason (drop).
func (d *Daemon) HandleMsg(msg *Msg) {
	switch k := &kinds[msg.Kind]; {
	case msg.Kind == MsgCrash || msg.Kind == MsgRestart || msg.Kind == MsgDo:
		// These run on a crashed daemon too.
	case d.down():
		goto drop // a crashed daemon drops everything else on the floor
	case k.scheduled && msg.inc != d.epoch:
		// A crash orphans every continuation and timer scheduled before
		// it: the Messengers they reference died with the incarnation.
		goto drop
	case d.rec == nil || k.body == bodyUnknown:
		// Below, recovery's gate on traffic from peers.
	case msg.Kind == MsgHopAck:
		d.handleHopAck(msg)
		return
	case msg.Kind == MsgHeartbeat:
		return // liveness is inferred at the transport layer
	case msg.From != d.id && msg.From >= 0 && msg.From < len(d.rec.peerDead) && d.rec.peerDead[msg.From]:
		// Stale traffic from a peer this daemon has declared dead.
		// peerDown already purged both sides' transient books for that
		// peer, so counting this message would leave a permanent recv >
		// sent imbalance and wedge GVT. A genuinely crashed peer's
		// in-flight messages die with its books; a falsely suspected
		// peer's recovery layer retransmits once peerUp fires (the fence
		// drops the frame before the hop ack, so the transfer stays
		// pending at the sender).
		goto drop
	case k.reliable && msg.From != d.id && d.dedupCheck(msg):
		goto drop
	}
	switch msg.Kind {
	case MsgMessenger, MsgCreate:
		d.recv++
		atomic.AddInt64(&d.Stats.Arrived, 1)
		if d.rec != nil {
			d.rec.recvFrom[msg.From]++
		}
		if msg.Kind == MsgMessenger {
			d.handleArrival(msg)
		} else {
			d.handleCreate(msg)
		}

	case MsgCreateAck:
		if node, ok := d.store.Node(msg.Origin.Node); ok {
			if h, ok := logical.FindLink(node, msg.LinkID); ok {
				h.Peer = msg.AckPeer
				h.PeerName = msg.AckPeerName
			}
		}

	case MsgInject:
		// Injection is local (System.Inject, or the inject native), so it
		// does not participate in GVT transient counting.
		d.handleInject(msg)

	case MsgGVTNotify, MsgGVTReport, MsgGVTToken:
		d.handleGVT(msg)

	case MsgGVTQuery:
		d.answerQuery(msg)

	case MsgGVTAdvance:
		d.advanceGVT(msg.GVT)

	case MsgHopAck, MsgHeartbeat:
		// Recovery-mode traffic reaching a system built without recovery
		// (e.g. a stray heartbeat during shutdown): ignore.

	// The daemon's own.
	case MsgStep:
		if m := d.active[msg.MsgrID]; m != nil {
			d.resume(m)
		}
	case MsgGVTRestart:
		if d.initiator.polling {
			d.initiator.startRound() // paced: rounds are still wanted
		}
	case MsgGVTWatchdog:
		if g := d.initiator; g.epoch == msg.GEpoch && g.open {
			g.startRound() // the round's wave is still out: relaunch it
		}
	case MsgRenotify:
		d.renotifyFire()
	case MsgRetransmit:
		d.retxFire(msg.HopSeq)
	case MsgCrash:
		d.crash()
	case MsgRestart:
		d.restart()
	case MsgPeerDown:
		d.peerDown(msg.From)
	case MsgPeerUp:
		d.peerUp(msg.From)
	case MsgDo:
		msg.do(d)

	default:
		d.sys.errs.Add(fmt.Errorf("daemon %d: unknown message kind %v", d.id, msg.Kind))
	}
	return
drop:
	if kinds[msg.Kind].slot {
		d.sys.sessionWork(msg.Tenant, msg.Session, -1)
	}
}

// restore materializes the Messenger msg carries for the handler named by
// stage. A snapshot that will not restore ends the Messenger as an error,
// and restore returns nil.
func (d *Daemon) restore(msg *Msg, stage string) *vm.VM {
	if msg.XferVM != nil {
		// In-process delivery: the VM arrived by ownership transfer — the
		// paper's "ship the Messenger-variable area as-is" hop, with no
		// serialize/deserialize round trip. Consume it exactly once.
		mvm := msg.XferVM
		msg.XferVM = nil
		if d.om != nil {
			d.om.zeroCopyHops.Inc()
		}
		return mvm
	}
	prog, ok := lookup(&d.sys.reg, d.sys.reg.byHash, msg.ProgHash)
	if !ok {
		d.end(msg.MsgrID, msg.Tenant, msg.Session, nil, endError,
			fmt.Errorf("%s: program %s not in registry", stage, msg.ProgHash))
		return nil
	}
	var berth *vm.Berth
	if n := len(d.berths); n > 0 {
		berth, d.berths[n-1] = d.berths[n-1], nil
		d.berths = d.berths[:n-1]
	}
	mvm, err := vm.RestoreInto(berth, prog, msg.Snapshot)
	if err != nil {
		d.end(msg.MsgrID, msg.Tenant, msg.Session, nil, endError, fmt.Errorf("%s: %w", stage, err))
		return nil
	}
	return mvm
}

// stepArrived makes the Messenger restored from msg resident at node and
// runs it.
func (d *Daemon) stepArrived(msg *Msg, mvm *vm.VM, node logical.NodeID, last string, lvt float64) {
	gate := d.resolveGate(msg.Tenant, msg.Session)
	d.step(d.resident(msg.MsgrID, mvm, node, last, lvt, msg.Tenant, msg.Session, gate))
}

func (d *Daemon) handleArrival(msg *Msg) {
	mvm := d.restore(msg, "arrival")
	if mvm == nil {
		return
	}
	node, ok := d.store.Node(msg.DestNode)
	if ok {
		if d.tr != nil {
			d.tr.Instant(d.id, "msgr", "hop.arrive",
				msgrID(msg.MsgrID), obs.I("from", int64(msg.From)))
		}
		if msg.RemoveLink != (logical.LinkID{}) {
			d.store.DetachHalf(node, msg.RemoveLink)
			atomic.AddInt64(&d.Stats.Deletes, 1)
			// Deleting the traversed link may have removed the node itself
			// if it became a singleton; the Messenger executes in it only
			// if it survived.
			_, ok = d.store.Node(node.ID)
		}
	}
	if !ok {
		// The destination node was deleted while the Messenger was in
		// flight, or went with the link it traversed.
		d.end(msg.MsgrID, msg.Tenant, msg.Session, nil, endDie, nil)
		return
	}
	d.stepArrived(msg, mvm, node.ID, msg.Last, msg.LVT)
}

func (d *Daemon) handleCreate(msg *Msg) {
	mvm := d.restore(msg, "create")
	if mvm == nil {
		return
	}
	nn := d.store.CreateNode(msg.CreateName)
	atomic.AddInt64(&d.Stats.Creates, 1)
	if d.tr != nil {
		d.tr.Instant(d.id, "msgr", "create.arrive",
			msgrID(msg.MsgrID), obs.I("from", int64(msg.From)), obs.S("node", nn.Name))
	}
	h := d.store.AttachHalf(nn, msg.LinkID, msg.LinkName, msg.LinkDir != 0, msg.LinkDir == 2,
		msg.Origin, msg.OriginName)
	ack := Msg{
		Kind:        MsgCreateAck,
		From:        d.id,
		LinkID:      msg.LinkID,
		Origin:      msg.Origin,
		AckPeer:     d.store.Addr(nn),
		AckPeerName: nn.Name,
	}
	if d.rec != nil && msg.From != d.id {
		// The ack completes the origin's half-link; losing it would strand
		// any Messenger that later traverses the link, so it travels
		// reliably too (uncounted: it carries no computation), and recovery
		// keeps it for retransmission.
		d.out = ack
		d.ship(msg.From, &d.out)
	} else {
		d.sendGVT(msg.From, ack)
	}
	d.stepArrived(msg, mvm, nn.ID, logical.LastName(h), msg.LVT)
}

func (d *Daemon) handleInject(msg *Msg) {
	mvm := d.restore(msg, "inject")
	if mvm == nil {
		return
	}
	target := d.store.Init()
	if msg.CreateName != "" && msg.CreateName != logical.InitName {
		if nodes := d.store.FindByName(msg.CreateName); len(nodes) > 0 {
			target = nodes[0]
		}
	}
	lvt := msg.LVT
	if lvt < d.gvt {
		lvt = d.gvt
	}
	if d.om != nil {
		d.om.injected.Inc()
	}
	if d.tr != nil {
		d.tr.Instant(d.id, "msgr", "inject",
			msgrID(msg.MsgrID), obs.S("script", mvm.Program().Name), obs.S("node", target.Name))
	}
	d.stepArrived(msg, mvm, target.ID, "", lvt)
}

// --- VM host adapter ---

// msgrHost adapts the daemon/node/Messenger triple to the vm.Host
// interface.
type msgrHost struct {
	d    *Daemon
	m    *Messenger
	node *logical.Node
}

func (h *msgrHost) NodeVar(name string) value.Value { return h.node.Vars[name] }

func (h *msgrHost) SetNodeVar(name string, v value.Value) { h.node.Vars[name] = v }

func (h *msgrHost) NetVar(name string) (value.Value, bool) {
	switch name {
	case "address":
		return value.Str(DaemonName(h.d.id)), true
	case "daemon":
		return value.Int(int64(h.d.id)), true
	case "ndaemons":
		return value.Int(int64(h.d.eng.NumDaemons())), true
	case "last":
		return value.Str(h.m.Last), true
	case "node":
		return value.Str(h.node.Name), true
	case "script":
		return value.Str(h.m.VM.Program().Name), true
	case "time":
		return value.Num(h.m.LVT), true
	case "gvt":
		return value.Num(h.d.gvt), true
	default:
		return value.Nil(), false
	}
}

func (h *msgrHost) Print(s string) { h.d.sys.print(h.d.id, s) }

// --- wake queue ---

// wakeEntry is a suspended Messenger and the virtual time it wakes at.
type wakeEntry struct {
	at float64
	m  *Messenger
}

// wakeBefore orders suspended Messengers by (wake time, ID) for
// determinism: the wake queue's order.
func wakeBefore(a, b wakeEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.m.ID < b.m.ID
}

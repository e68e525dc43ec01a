package core

// Messenger-level fault recovery (WithRecovery): hop-level acknowledgement
// with timeout and exponential-backoff retransmission, duplicate suppression
// keyed by (sender, MsgrID, HopSeq), and logical-network healing on daemon
// death — orphaned nodes are adopted by the surviving daemon that linked to
// them, and in-flight Messengers respawn from their last transmitted
// snapshot. The snapshot is the checkpoint: the paper's own migration
// mechanism doubles as the recovery mechanism.
//
// Everything here is opt-in. With recovery off, no field below is allocated,
// no timer is armed, and both engines behave byte-identically to before —
// the committed experiment figures depend on that.
//
// Liveness accounting transfers the in-flight slot explicitly: a reliable
// Messenger send leaves its slot in the retained entry; the receiver adds a
// fresh slot on (non-duplicate) arrival; the first ack releases the entry's.
// A crashed daemon releases the slots of its resident Messengers and of its
// unacknowledged outbound entries; respawning an entry reuses its slot when
// unacked and adds a fresh one when acknowledged (the receiver's copy of
// the slot died with the receiver).
//
// Delivery is at-least-once: a respawned Messenger re-executes from its
// last transmitted snapshot even if the dead daemon had already run part of
// its continuation. Applications that must survive daemon deaths should
// make their natives idempotent (see docs/FAULTS.md).

import (
	"sort"
	"time"

	"messengers/internal/backoff"
	"messengers/internal/logical"
	"messengers/internal/obs"
	"messengers/internal/sim"
)

// RecoveryConfig tunes messenger-level fault recovery.
type RecoveryConfig struct {
	// AckTimeout is the initial retransmission timeout for an
	// unacknowledged reliable message; it doubles on every attempt with
	// per-entry jitter (see internal/backoff).
	AckTimeout sim.Time
	// MaxBackoff caps the per-attempt timeout growth. Retransmission never
	// gives up: a transfer whose destination is unreachable but never
	// declared dead retries at this cadence forever (an unhealed partition
	// without a crash notice stalls the run rather than corrupting it).
	MaxBackoff sim.Time
	// RetainBudget caps how many acknowledged Messenger transfers a daemon
	// retains for GVT-safe respawn. Zero (the default) keeps every acked
	// entry until fossil collection frees it — full respawnability, but a
	// run that never advances virtual time retains them forever. Service
	// mode sets a budget: the oldest acked entries are force-released past
	// it, trading respawn coverage of long-dead history for bounded memory
	// (and a dedup-eviction floor that actually advances).
	RetainBudget int
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 20 * sim.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 32 * c.AckTimeout
	}
	return c
}

// WithRecovery enables messenger-level fault recovery on every daemon:
// reliable hop delivery (ack + retransmit + dedup), per-peer transient
// bookkeeping for GVT safety under loss, and logical-network healing with
// Messenger respawn on daemon death. Crash/Restart and the fault injectors
// require it.
func WithRecovery(cfg RecoveryConfig) Option {
	c := cfg.withDefaults()
	return func(s *System) { s.recCfg = &c }
}

// reliableKind reports whether a message kind carries state the sender must
// not lose: Messenger transfers, create requests, and the acks that
// complete cross-daemon links.
func reliableKind(k MsgKind) bool {
	return k == MsgMessenger || k == MsgCreate || k == MsgCreateAck
}

// retxEntry is one reliable send, retained until it is acknowledged AND
// global virtual time has passed its LVT — until then the snapshot may
// still be needed to respawn the Messenger without violating GVT.
type retxEntry struct {
	seq      uint64
	dst      int
	msg      *Msg
	lvt      float64
	acked    bool
	released bool // freed: late retransmission timers must ignore it
	attempts int
	timeout  sim.Time
}

// recovery is one daemon's reliable-delivery state (nil unless the system
// was built WithRecovery). Executor-confined, like the rest of the daemon.
type recovery struct {
	cfg     RecoveryConfig
	nextSeq uint64
	pending map[uint64]*retxEntry
	// floorSeq is the reliable-delivery floor: every sequence at or below
	// it has been released (acked and freed, or respawned to a dead peer).
	// Piggybacked on outbound reliable messages as AckFloor so receivers
	// can evict dedup state; advances amortized O(1) as entries release.
	floorSeq uint64
	// retained is the FIFO of acked-but-GVT-retained sequence numbers,
	// maintained only when RetainBudget > 0 (entries released by fossil
	// collection linger as stale numbers and are skipped on pop).
	retained []uint64
	// seen records processed reliable transfers per sender for duplicate
	// suppression, keyed by the sender's HopSeq. evictedTo is the per-
	// sender watermark: every sequence at or below it was processed and
	// evicted from seen (a straggling duplicate below it is recognized by
	// the comparison alone). Bounded by each sender's in-flight window
	// instead of growing for the length of the run.
	seen      []map[uint64]struct{}
	evictedTo []uint64
	peerDead  []bool
	// adopted maps a dead daemon's orphaned node addresses to their local
	// replacement (valid while that peer is marked dead).
	adopted map[logical.Addr]logical.NodeID
	// sentTo/recvFrom split the GVT transient counters per peer so a dead
	// peer's half of the books can be purged exactly.
	sentTo, recvFrom []int64
}

func newRecovery(n int, cfg RecoveryConfig) *recovery {
	return &recovery{
		cfg:       cfg,
		pending:   map[uint64]*retxEntry{},
		seen:      make([]map[uint64]struct{}, n),
		evictedTo: make([]uint64, n),
		peerDead:  make([]bool, n),
		adopted:   map[logical.Addr]logical.NodeID{},
		sentTo:    make([]int64, n),
		recvFrom:  make([]int64, n),
	}
}

// advanceFloor pushes the delivery floor past every released sequence.
// Sequences are allocated densely, so "not pending" means "released".
func (r *recovery) advanceFloor() {
	for r.floorSeq < r.nextSeq {
		if _, ok := r.pending[r.floorSeq+1]; ok {
			return
		}
		r.floorSeq++
	}
}

// down reports whether this daemon is crashed. The flag is set synchronously
// by System.Crash (possibly from another goroutine) and gates every executor
// entry point while recovery is enabled.
func (d *Daemon) down() bool { return d.downFlag.Load() }

// safeTimer arms an executor timer that fires only if the daemon is still
// up and in the same incarnation it was armed in (a crash orphans every
// pending timer and continuation).
func (d *Daemon) safeTimer(delay sim.Time, fn func()) {
	ep := d.epoch
	d.eng.SetTimer(d.id, delay, func() {
		if d.down() || d.epoch != ep {
			return
		}
		fn()
	})
}

// ship routes a daemon-to-daemon message: reliably under recovery, directly
// otherwise. counted marks messages that participate in GVT transient
// counting. A destination already known dead is recovered locally, skipping
// the wire and the books entirely.
func (d *Daemon) ship(dst int, msg *Msg, counted bool) {
	if d.rec != nil && d.rec.peerDead[dst] {
		d.redirectDead(dst, msg)
		return
	}
	if d.rec != nil && msg.XferVM != nil {
		// Retransmission and duplicate delivery both need bytes that survive
		// the first decode, so recovery mode forgoes the zero-copy ownership
		// transfer and snapshots here — before the GVT books see the send, so
		// an unserializable Messenger dies like any runtime failure instead
		// of leaving a phantom transient.
		snap, err := msg.XferVM.Snapshot()
		if err != nil {
			d.end(msg.MsgrID, msg.Tenant, msg.Session, nil, endError, err)
			return
		}
		d.ParkVM(msg.XferVM)
		msg.Snapshot = snap
		msg.XferVM = nil
	}
	if counted {
		d.sent++
		if d.rec != nil {
			d.rec.sentTo[dst]++
		}
	}
	if d.rec == nil {
		d.netSend(dst, msg)
		return
	}
	d.reliableSend(dst, msg)
}

// reliableSend materializes, stamps, retains, and transmits one reliable
// message, arming its retransmission timer. The Messenger's liveness slot
// stays with the retained entry until the ack arrives.
func (d *Daemon) reliableSend(dst int, msg *Msg) {
	rec := d.rec
	rec.nextSeq++
	msg.HopSeq = rec.nextSeq
	msg.AckFloor = rec.floorSeq
	e := &retxEntry{
		seq: rec.nextSeq, dst: dst, msg: msg, lvt: msg.LVT,
		attempts: 1, timeout: rec.cfg.AckTimeout,
	}
	rec.pending[e.seq] = e
	d.netSend(dst, msg)
	d.armRetx(e)
}

func (d *Daemon) armRetx(e *retxEntry) {
	d.eng.SetTimer(d.id, e.timeout, func() { d.retxFire(e) })
}

func (d *Daemon) retxFire(e *retxEntry) {
	if d.down() || e.acked || e.released {
		return
	}
	rec := d.rec
	if rec.peerDead[e.dst] {
		// A death notice beat the timer; PeerDown respawned (or is about to
		// respawn) every pending entry to that peer, including this one.
		return
	}
	e.attempts++
	// Jittered exponential backoff keyed by (sender, peer, hop sequence,
	// attempt): deterministic on the simulated engine, but decorrelated
	// across entries so a healed partition doesn't trigger a synchronized
	// retransmit burst from every pending hop at once.
	e.timeout = sim.Time(backoff.Jittered(
		time.Duration(rec.cfg.AckTimeout), time.Duration(rec.cfg.MaxBackoff),
		e.attempts, backoff.Key(d.id, e.dst, int(e.seq), e.attempts)))
	if d.om != nil {
		d.om.retx.Inc()
	}
	if d.tr != nil {
		d.tr.Instant(d.id, "rec", "msgr.retx",
			obs.I("to", int64(e.dst)), obs.I("seq", int64(e.seq)), obs.I("attempt", int64(e.attempts)))
	}
	// Each retransmission carries the current floor, so even a quiet link
	// eventually propagates dedup-eviction progress.
	e.msg.AckFloor = rec.floorSeq
	d.netSend(e.dst, e.msg)
	d.armRetx(e)
}

// handleHopAck marks a pending entry acknowledged, releases the entry's
// liveness slot to the receiver's copy, and frees it if fossil collection
// allows.
func (d *Daemon) handleHopAck(msg *Msg) {
	e, ok := d.rec.pending[msg.HopSeq]
	if !ok || e.acked {
		return
	}
	e.acked = true
	if e.msg.CarriesMessenger() {
		d.sys.sessionWork(e.msg.Tenant, e.msg.Session, -1)
	}
	d.maybeRelease(e)
	if !e.released && d.rec.cfg.RetainBudget > 0 {
		d.rec.retained = append(d.rec.retained, e.seq)
		d.enforceRetainBudget()
	}
}

// enforceRetainBudget force-releases the oldest acked-but-retained entries
// beyond RetainBudget. A force-released entry can no longer respawn its
// Messenger if the receiving daemon later dies — the documented tradeoff
// for bounded memory in long-running service mode.
func (d *Daemon) enforceRetainBudget() {
	rec := d.rec
	for len(rec.retained) > rec.cfg.RetainBudget {
		seq := rec.retained[0]
		rec.retained = rec.retained[1:]
		e, ok := rec.pending[seq]
		if !ok || !e.acked || e.released {
			continue // already freed by fossil collection or respawn
		}
		e.released = true
		delete(rec.pending, seq)
	}
	rec.advanceFloor()
}

// maybeRelease frees an acknowledged entry once GVT has passed its LVT (the
// snapshot can then never be needed for respawn without violating GVT).
// Non-Messenger entries (create acks) are freed on acknowledgement.
func (d *Daemon) maybeRelease(e *retxEntry) {
	if !e.acked {
		return
	}
	if e.msg.CarriesMessenger() && e.lvt >= d.gvt {
		return
	}
	e.released = true
	delete(d.rec.pending, e.seq)
	d.rec.advanceFloor()
}

// releaseFossils frees acknowledged entries whose LVT the new GVT has
// passed. Called from advanceGVT. Applications that never advance virtual
// time retain their acknowledged entries for the whole run — which is also
// what makes their Messengers respawnable at any point.
func (d *Daemon) releaseFossils() {
	//lint:maporder unordered delete of independent entries
	for seq, e := range d.rec.pending {
		if e.acked && e.lvt < d.gvt {
			e.released = true
			delete(d.rec.pending, seq)
		}
	}
	d.rec.advanceFloor()
}

// dedupCheck runs on every inbound reliable message: re-acknowledge
// unconditionally (the previous ack may have been lost), then report
// whether this transfer was already processed. A non-duplicate
// Messenger-carrying arrival takes its liveness slot here, before any
// processing (whichever way it ends, end releases it).
func (d *Daemon) dedupCheck(msg *Msg) (dup bool) {
	d.netSend(msg.From, &Msg{Kind: MsgHopAck, From: d.id, MsgrID: msg.MsgrID, HopSeq: msg.HopSeq})
	rec := d.rec
	from := msg.From
	sm := rec.seen[from]
	if sm == nil {
		sm = map[uint64]struct{}{}
		rec.seen[from] = sm
	}
	// The sender's floor covers only released entries — acknowledged, so
	// already processed here — which makes their dedup records evictable:
	// any straggling duplicate at or below the watermark is recognized by
	// the comparison alone.
	for rec.evictedTo[from] < msg.AckFloor {
		rec.evictedTo[from]++
		delete(sm, rec.evictedTo[from])
	}
	if msg.HopSeq <= rec.evictedTo[from] {
		dup = true
	} else if _, seen := sm[msg.HopSeq]; seen {
		dup = true
	}
	if dup {
		if d.om != nil {
			d.om.dedup.Inc()
		}
		if d.tr != nil {
			d.tr.Instant(d.id, "rec", "msgr.dedup", msgrID(msg.MsgrID), obs.I("from", int64(msg.From)))
		}
		return true
	}
	sm[msg.HopSeq] = struct{}{}
	if msg.CarriesMessenger() {
		d.sys.sessionWork(msg.Tenant, msg.Session, 1)
	}
	return false
}

// redirectDead handles a message addressed to a daemon known to be dead:
// creates re-target this daemon, Messengers follow the adoption map, link
// acks are dropped (their origin died). No transient counting — everything
// resolves locally.
func (d *Daemon) redirectDead(dst int, msg *Msg) {
	switch msg.Kind {
	case MsgCreateAck:
		return
	case MsgCreate:
		if d.tr != nil {
			d.tr.Instant(d.id, "rec", "msgr.redirect", msgrID(msg.MsgrID), obs.I("dead", int64(dst)))
		}
		msg.From = d.id // handleCreate then self-acks, completing the origin half-link locally
		d.handleCreate(msg)
	case MsgMessenger:
		addr := logical.Addr{Daemon: dst, Node: msg.DestNode}
		nid, ok := d.rec.adopted[addr]
		if !ok {
			// No surviving attachment to the destination: zero matching
			// destinations, so the Messenger ceases to exist.
			d.end(msg.MsgrID, msg.Tenant, msg.Session, nil, endDie, nil)
			return
		}
		if d.tr != nil {
			d.tr.Instant(d.id, "rec", "msgr.redirect", msgrID(msg.MsgrID), obs.I("dead", int64(dst)))
		}
		msg.DestNode = nid
		msg.From = d.id
		d.handleArrival(msg)
	}
}

// PeerDown records that peer has died: purges this daemon's half of the
// transient books against it (the dead daemon's own counters vanished from
// the global GVT sum), heals the logical network by adopting orphaned
// nodes, and respawns every retained transfer whose last hop landed there.
func (d *Daemon) PeerDown(peer int) {
	if d.rec == nil || d.down() || peer == d.id || d.rec.peerDead[peer] {
		return
	}
	rec := d.rec
	rec.peerDead[peer] = true
	if d.om != nil {
		d.om.peerDowns.Inc()
	}
	if d.tr != nil {
		d.tr.Instant(d.id, "rec", "peer.down", obs.I("peer", int64(peer)))
	}
	d.sent -= rec.sentTo[peer]
	rec.sentTo[peer] = 0
	d.recv -= rec.recvFrom[peer]
	rec.recvFrom[peer] = 0
	for _, orphan := range d.store.Orphans(peer) {
		nn := d.store.Adopt(orphan)
		rec.adopted[orphan] = nn.ID
		if d.om != nil {
			d.om.adoptions.Inc()
		}
		if d.tr != nil {
			d.tr.Instant(d.id, "rec", "node.adopt",
				obs.I("daemon", int64(orphan.Daemon)), obs.I("node", int64(orphan.Node)),
				obs.S("as", nn.Name))
		}
	}
	var seqs []uint64
	//lint:maporder keys are collected then sorted before use
	for seq, e := range rec.pending {
		if e.dst == peer {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		d.respawnEntry(rec.pending[seq])
	}
}

// PeerUp clears the death mark when a crashed daemon rejoins. Adopted nodes
// stay local — every half-link was rewired at adoption, and the restarted
// daemon comes back empty.
func (d *Daemon) PeerUp(peer int) {
	if d.rec == nil || d.down() || !d.rec.peerDead[peer] {
		return
	}
	d.rec.peerDead[peer] = false
	//lint:maporder unordered delete of independent entries
	for addr := range d.rec.adopted {
		if addr.Daemon == peer {
			delete(d.rec.adopted, addr)
		}
	}
	if d.om != nil {
		d.om.peerUps.Inc()
	}
	if d.tr != nil {
		d.tr.Instant(d.id, "rec", "peer.up", obs.I("peer", int64(peer)))
	}
}

// respawnEntry resurrects one retained transfer whose destination died: the
// last transmitted snapshot is the checkpoint. An acknowledged entry's
// Messenger was owned by the dead daemon — its liveness slot died with it,
// so the respawn takes a fresh one; an unacknowledged entry still holds its
// own.
func (d *Daemon) respawnEntry(e *retxEntry) {
	e.released = true
	delete(d.rec.pending, e.seq)
	d.rec.advanceFloor()
	msg := e.msg
	if msg.Kind == MsgCreateAck {
		return // the link's origin died with the daemon
	}
	if e.acked {
		d.sys.sessionWork(msg.Tenant, msg.Session, 1)
	}
	if d.om != nil {
		d.om.respawns.Inc()
	}
	if d.tr != nil {
		d.tr.Instant(d.id, "rec", "msgr.respawn",
			msgrID(msg.MsgrID), obs.I("dead", int64(e.dst)), obs.F("lvt", e.lvt))
	}
	d.redirectDead(e.dst, msg)
}

// crashCleanup is the executor half of System.Crash: every Messenger and
// logical node on this daemon is lost, the transient books zero, and all
// held liveness slots are released. Runs on the executor with the down flag
// already set (the raw engine call bypasses the guard); bumping the epoch
// orphans every continuation and timer scheduled before the crash.
func (d *Daemon) crashCleanup() {
	d.epoch++
	lost := 0
	//lint:maporder commutative release of independent slots
	for _, m := range d.active {
		lost++
		d.sys.sessionWork(m.Tenant, m.Session, -1)
	}
	for _, e := range d.waitQ.Items() {
		lost++
		d.sys.sessionWork(e.m.Tenant, e.m.Session, -1)
	}
	//lint:maporder commutative release of independent slots
	for _, e := range d.rec.pending {
		e.released = true
		if !e.acked && e.msg.CarriesMessenger() {
			lost++ // the entry's in-flight slot dies with the daemon
			d.sys.sessionWork(e.msg.Tenant, e.msg.Session, -1)
		}
	}
	d.rec.pending = map[uint64]*retxEntry{}
	d.rec.floorSeq = d.rec.nextSeq // everything outstanding was released
	d.rec.retained = nil
	for i := range d.rec.seen {
		d.rec.seen[i] = nil
		d.rec.evictedTo[i] = 0
	}
	for i := range d.rec.peerDead {
		d.rec.peerDead[i] = false
		d.rec.sentTo[i] = 0
		d.rec.recvFrom[i] = 0
	}
	d.rec.adopted = map[logical.Addr]logical.NodeID{}
	d.active = map[uint64]*Messenger{}
	d.waitQ.Reset()
	d.notified = false
	d.sent, d.recv = 0, 0
	d.store = logical.NewStore(d.id)
	if d.initiator != nil {
		d.initiator.crashReset()
	}
	if d.om != nil {
		d.om.deaths.Inc()
	}
	if d.tr != nil {
		d.tr.Instant(d.id, "rec", "daemon.crash", obs.I("lost", int64(lost)))
	}
}

// restartReset is the executor half of System.Restart: the daemon comes
// back as a fresh process — empty logical store, zeroed books — reading the
// system's program registry as before (a restarted daemon reloads code) and
// its ID counters monotonic (the stand-in for fresh process-unique IDs).
func (d *Daemon) restartReset() {
	d.store = logical.NewStore(d.id)
	d.gvt = 0
	if d.om != nil {
		d.om.restarts.Inc()
	}
	if d.tr != nil {
		d.tr.Instant(d.id, "rec", "daemon.restart")
	}
	d.downFlag.Store(false)
}

// armRenotify keeps a renotification timer running while Messengers stay
// suspended, so a lost MsgGVTNotify cannot wedge virtual time forever.
func (d *Daemon) armRenotify() {
	if d.rec == nil || d.renotifyOn {
		return
	}
	d.renotifyOn = true
	d.safeTimer(2*d.sys.gvtInterval, d.renotifyFire)
}

func (d *Daemon) renotifyFire() {
	d.renotifyOn = false
	if d.waitQ.Len() == 0 {
		return
	}
	d.sendGVT(0, &Msg{Kind: MsgGVTNotify, From: d.id})
	d.renotifyOn = true
	d.safeTimer(2*d.sys.gvtInterval, d.renotifyFire)
}

// --- System-level fault API (the faults.Target surface) ---

// Crash kills daemon d mid-run: it stops processing immediately and loses
// all in-memory state — logical nodes, resident Messengers, transient
// counters — exactly as the daemon process dying would. Requires
// WithRecovery. Survivors learn of the death via NotifyPeerDown (or the
// transport's failure detector).
func (s *System) Crash(d int) {
	dae := s.daemons[d]
	if dae.rec == nil {
		panic("core: Crash requires WithRecovery")
	}
	if !dae.downFlag.CompareAndSwap(false, true) {
		return
	}
	// Raw engine call: the cleanup must run on the executor despite the
	// down guard.
	s.eng.Exec(d, 0, func() { dae.crashCleanup() })
}

// Restart revives a crashed daemon as a fresh, empty daemon.
func (s *System) Restart(d int) {
	dae := s.daemons[d]
	if dae.rec == nil {
		panic("core: Restart requires WithRecovery")
	}
	if !dae.down() {
		return
	}
	s.eng.Exec(d, 0, func() { dae.restartReset() })
}

// NotifyPeerDown delivers a failure notice for dead to observer's executor.
func (s *System) NotifyPeerDown(observer, dead int) {
	dae := s.daemons[observer]
	s.eng.Exec(observer, 0, func() { dae.PeerDown(dead) })
}

// NotifyPeerUp delivers a recovery notice for a restarted daemon to
// observer's executor.
func (s *System) NotifyPeerUp(observer, dead int) {
	dae := s.daemons[observer]
	s.eng.Exec(observer, 0, func() { dae.PeerUp(dead) })
}

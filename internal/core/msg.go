package core

import (
	"fmt"

	"messengers/internal/bytecode"
	"messengers/internal/logical"
	"messengers/internal/vm"
	"messengers/internal/wire"
)

// MsgKind discriminates messages: those daemons exchange, and the local
// ones a daemon's executor runs for itself (its continuations, its timers,
// fault notices, injections and System.Do), which never go on the wire.
type MsgKind uint8

// Message kinds.
const (
	// MsgMessenger carries a hopping Messenger: program hash + VM snapshot.
	MsgMessenger MsgKind = iota + 1
	// MsgCreate carries a Messenger together with a request to create the
	// logical node it will continue in.
	MsgCreate
	// MsgCreateAck completes the origin's half-link after a remote create.
	MsgCreateAck
	// MsgInject delivers an injected Messenger to a daemon (local).
	MsgInject
	// 5 is reserved: it was MsgProgram, a by-name program broadcast nothing
	// sent. The blank keeps every later kind's wire value.
	_
	// MsgGVTNotify tells the initiator that a daemon has suspended a
	// Messenger on virtual time (so GVT rounds should run).
	MsgGVTNotify
	// MsgGVTQuery asks a daemon for its GVT report.
	MsgGVTQuery
	// MsgGVTReport answers a query with local minimum and message counts.
	MsgGVTReport
	// MsgGVTAdvance broadcasts a new global virtual time.
	MsgGVTAdvance
	// 10 is reserved: it was MsgHalt, a quiescence broadcast nothing sent.
	_
	// MsgHopAck acknowledges receipt of a reliable message (recovery mode);
	// MsgrID and HopSeq identify the acknowledged transfer.
	MsgHopAck
	// MsgHeartbeat is a periodic liveness probe between daemons (recovery
	// mode on real transports; intercepted at the transport layer).
	MsgHeartbeat
	// MsgGVTToken is the distributed ring-reduction GVT token: it circulates
	// the daemon ring accumulating the global minimum and transient counters
	// (pass 1, GPass=1), then again committing the new GVT (pass 2, GPass=2).
	MsgGVTToken

	// The local kinds: each is delivered by Exec or SetTimer to the daemon
	// that scheduled it, or by the System, and has no wire form.

	// MsgStep takes the next step of Messenger MsgrID, resident in
	// d.active: its next segment, or what its last one paused for (resume).
	MsgStep
	// MsgGVTRestart paces the initiator's next round.
	MsgGVTRestart
	// MsgGVTWatchdog relaunches round GEpoch if its wave is still out.
	MsgGVTWatchdog
	// MsgRenotify repeats a suspended daemon's MsgGVTNotify.
	MsgRenotify
	// MsgRetransmit resends reliable transfer HopSeq unless it was acked.
	MsgRetransmit
	// MsgCrash and MsgRestart are the executor halves of System.Crash and
	// System.Restart.
	MsgCrash
	MsgRestart
	// MsgPeerDown and MsgPeerUp report that daemon From died or came back.
	MsgPeerDown
	MsgPeerUp
	// MsgDo runs System.Do's function with the daemon.
	MsgDo
)

// kindInfo is everything that depends on a message's kind alone.
type kindInfo struct {
	name      string
	lane      ExecLane // where its delivery by Send runs
	reliable  bool     // under recovery: retained until acked, duplicates dropped
	messenger bool     // transfers computation, so it is a GVT transient
	body      msgBody  // what follows the header on the wire
	// scheduled: the daemon schedules it for itself, stamped with its
	// incarnation, and a crash orphans it (HandleMsg).
	scheduled bool
	slot      bool // holds a liveness slot its sender took: a drop gives it back (HandleMsg)
}

// msgBody names what a kind's encoding carries after the header. AppendTo
// defines each; docs/WIRE.md tables them.
type msgBody uint8

const (
	bodyUnknown   msgBody = iota // no such kind, or a local one: DecodeMsg refuses it
	bodyTransfer                 // a Messenger
	bodyCreate                   // a Messenger and the node it starts at
	bodyCreateAck                // the far half of a link
	bodyGVT                      // every GVT number, whichever the kind reads
	bodyHopAck                   // the acknowledged MsgrID
	bodyNone                     // a heartbeat
)

// kinds is the one table of message kinds, with a slot for every byte a
// kind can be. A slot without an entry (0, the blanks 5 and 10, anything
// past MsgDo) is the zero kindInfo: an unknown kind. A local kind has a
// name and no body, so it never goes on the wire either.
var kinds = [256]kindInfo{
	MsgMessenger:   {"messenger", LaneNet, true, true, bodyTransfer, false, false},
	MsgCreate:      {"create", LaneNet, true, true, bodyCreate, false, false},
	MsgCreateAck:   {"create-ack", LaneNet, true, false, bodyCreateAck, false, false},
	MsgInject:      {"inject", LaneNet, false, true, bodyUnknown, false, true},
	MsgGVTNotify:   {"gvt-notify", LaneControl, false, false, bodyGVT, false, false},
	MsgGVTQuery:    {"gvt-query", LaneControl, false, false, bodyGVT, false, false},
	MsgGVTReport:   {"gvt-report", LaneControl, false, false, bodyGVT, false, false},
	MsgGVTAdvance:  {"gvt-advance", LaneControl, false, false, bodyGVT, false, false},
	MsgHopAck:      {"hop-ack", LaneControl, false, false, bodyHopAck, false, false},
	MsgHeartbeat:   {"heartbeat", LaneControl, false, false, bodyNone, false, false},
	MsgGVTToken:    {"gvt-token", LaneControl, false, false, bodyGVT, false, false},
	MsgStep:        {"step", LaneLocal, false, false, bodyUnknown, true, false},
	MsgGVTRestart:  {"gvt-restart", LaneControl, false, false, bodyUnknown, true, false},
	MsgGVTWatchdog: {"gvt-watchdog", LaneControl, false, false, bodyUnknown, true, false},
	MsgRenotify:    {"renotify", LaneControl, false, false, bodyUnknown, true, false},
	MsgRetransmit:  {"retransmit", LaneControl, false, false, bodyUnknown, true, false},
	MsgCrash:       {"crash", LaneLocal, false, false, bodyUnknown, false, false},
	MsgRestart:     {"restart", LaneLocal, false, false, bodyUnknown, false, false},
	MsgPeerDown:    {"peer-down", LaneControl, false, false, bodyUnknown, false, false},
	MsgPeerUp:      {"peer-up", LaneControl, false, false, bodyUnknown, false, false},
	MsgDo:          {"do", LaneLocal, false, false, bodyUnknown, false, false},
}

// String names the kind.
func (k MsgKind) String() string {
	if n := kinds[k].name; n != "" {
		return n
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// Msg is one message. In memory a single struct covers all kinds and the
// fields a kind does not use stay zero; on the wire a message is a header
// and its kind's body only (msgBody), encoded by AppendTo for the TCP
// transport. A local kind reuses the fields named at its constant.
type Msg struct {
	// The header, which every kind carries.
	Kind MsgKind
	// inc is the incarnation a scheduled kind was scheduled in (Daemon.epoch).
	inc  uint32
	From int
	// HopSeq is the sender's per-daemon reliable-transfer sequence number
	// (recovery mode; zero otherwise). With From it keys duplicate
	// suppression and MsgHopAck matching.
	HopSeq uint64
	// AckFloor piggybacks the sender's reliable-delivery floor: every
	// HopSeq at or below it has been released (acknowledged and processed),
	// so the receiver can evict its dedup entries up to the floor. Keeps
	// the duplicate-suppression map bounded in long-running service mode.
	AckFloor uint64

	// A transfer (MsgMessenger, MsgCreate, MsgInject; MsgHopAck's body is
	// the MsgrID it acknowledges).
	ProgHash bytecode.Hash
	Snapshot []byte
	// XferVM, when non-nil, carries the hopping Messenger's VM by ownership
	// transfer instead of Snapshot: in-process engines deliver the pointer
	// as-is (zero-copy — the paper's Messenger-variable-area transfer), and
	// the TCP transport serializes it lazily, straight into the pooled
	// frame. At most one of XferVM and Snapshot is set. The sender must not
	// touch the VM after handing the message to the engine; the receiver
	// consumes it (or the decoded Snapshot) exactly once.
	XferVM *vm.VM
	// snapSize caches XferVM.SnapshotSize (the VM is frozen in transit, so
	// the size cannot change between send and delivery).
	snapSize int
	MsgrID   uint64
	LVT      float64
	// DestNode is the target logical node (MsgMessenger).
	DestNode logical.NodeID
	// Last is the link name to expose as $last at the destination.
	Last string
	// RemoveLink, when nonzero, is the half-link to delete at the
	// destination node before the Messenger runs (delete traversal).
	RemoveLink logical.LinkID
	// Bytecode aboard a hop, A4 ablation only (MsgrCodeCached off); unread.
	ProgBytes []byte
	// Tenant and Session tag a Messenger admitted through a multi-tenant
	// admission gate (internal/serve); they follow the Messenger through
	// every hop, create, and recovery respawn so quota charging survives
	// migration. Empty/zero outside service mode.
	Tenant  string
	Session uint64

	// A create request (MsgCreate; MsgInject's start node is CreateName).
	CreateName string
	LinkID     logical.LinkID
	LinkName   string
	LinkDir    uint8 // 0 undirected, 1 origin->new, 2 new->origin
	// GPass is the GVT ring token's pass number: 1 accumulates, 2 commits.
	// It sits here, beside the other byte, so that do fits.
	GPass      uint8
	Origin     logical.Addr
	OriginName string

	// A create ack (MsgCreateAck): LinkID and Origin above plus the new node.
	AckPeer     logical.Addr
	AckPeerName string

	// GVT control (MsgGVT*, with GPass above).
	GEpoch int64
	GMin   float64
	GSent  int64
	GRecv  int64
	GVT    float64

	// do is MsgDo's function.
	do func(*Daemon)
}

// CarriesMessenger reports whether this message transfers computation (and
// therefore participates in GVT transient counting).
func (m *Msg) CarriesMessenger() bool { return kinds[m.Kind].messenger }

// SnapshotLen is the length in bytes of the Messenger state this message
// carries: the materialized snapshot, or the exact encoded size of the VM
// travelling by ownership transfer (computed without serializing it).
func (m *Msg) SnapshotLen() int {
	if m.XferVM != nil {
		if m.snapSize == 0 {
			m.snapSize = m.XferVM.SnapshotSize()
		}
		return m.snapSize
	}
	return len(m.Snapshot)
}

// AppendTo serializes the message into e in one pass: the header, then
// the body of its kind. A Messenger carried by XferVM is encoded directly
// into the frame through a reserved length slot — no intermediate snapshot
// slice is ever built.
func (m *Msg) AppendTo(e *wire.Encoder) {
	e.U8(byte(m.Kind))
	e.U32(uint32(m.From))
	e.U64(m.HopSeq)
	e.U64(m.AckFloor)
	switch body := kinds[m.Kind].body; body {
	case bodyTransfer, bodyCreate:
		e.Raw(m.ProgHash[:])
		if m.XferVM != nil {
			off := e.Reserve(4)
			start := e.Len()
			m.XferVM.AppendSnapshot(e)
			n := e.Len() - start
			if n > wire.MaxLen {
				e.Fail(fmt.Errorf("core: snapshot of %d bytes exceeds limit (%d)", n, wire.MaxLen))
				return
			}
			e.PatchU32(off, uint32(n))
		} else {
			e.Blob(m.Snapshot)
		}
		e.U64(m.MsgrID)
		e.F64(m.LVT)
		e.U64(uint64(m.DestNode))
		e.Str(m.Last)
		appendLinkIDTo(e, m.RemoveLink)
		e.Blob(m.ProgBytes)
		e.Str(m.Tenant)
		e.U64(m.Session)
		if body == bodyCreate {
			e.Str(m.CreateName)
			appendLinkIDTo(e, m.LinkID)
			e.Str(m.LinkName)
			e.U8(m.LinkDir)
			appendAddrTo(e, m.Origin)
			e.Str(m.OriginName)
		}
	case bodyCreateAck:
		appendLinkIDTo(e, m.LinkID)
		appendAddrTo(e, m.Origin)
		appendAddrTo(e, m.AckPeer)
		e.Str(m.AckPeerName)
	case bodyGVT:
		e.U64(uint64(m.GEpoch))
		e.F64(m.GMin)
		e.U64(uint64(m.GSent))
		e.U64(uint64(m.GRecv))
		e.F64(m.GVT)
		e.U8(m.GPass)
	case bodyHopAck:
		e.U64(m.MsgrID)
	case bodyUnknown:
		e.Fail(fmt.Errorf("core: encode %v: no such message kind", m.Kind))
	}
}

// Encode serializes the message into a standalone slice. The TCP transport
// uses EncodeFrame (pooled, framed) instead.
func (m *Msg) Encode() []byte { //lint:deadcode test support: the wire goldens and decoder tests of several packages
	e := wire.AppendingTo(nil)
	m.AppendTo(e)
	if err := e.Err(); err != nil {
		// Production paths frame through EncodeFrame and handle the sticky
		// error; Encode is the test/tooling spelling, where shipping
		// truncated bytes silently would corrupt goldens — be loud instead.
		panic(fmt.Sprintf("core: Msg.Encode: %v", err))
	}
	return e.Bytes()
}

// EncodeFrame serializes the message as one transport frame — header and
// payload in a single buffer — into e (typically a pooled encoder). It
// returns the encoder's sticky error, if any.
func (m *Msg) EncodeFrame(e *wire.Encoder) error {
	off := e.BeginFrame()
	m.AppendTo(e)
	return e.EndFrame(off)
}

// WireSize is the size charged on the simulated network. Control messages
// are charged a small fixed size, which their encodings fit in.
func (m *Msg) WireSize() int {
	if m.CarriesMessenger() {
		return 48 + m.SnapshotLen() + len(m.Last) + len(m.CreateName) + len(m.LinkName) + len(m.ProgBytes) + len(m.Tenant)
	}
	return 64
}

// DecodeMsg decodes buf into a new Msg (Decode).
func DecodeMsg(buf []byte) (*Msg, error) {
	m := &Msg{}
	if err := m.Decode(buf); err != nil {
		return nil, err
	}
	return m, nil
}

// Decode deserializes into m a message produced by AppendTo, which must be
// the whole of buf: an unknown kind, or bytes after the kind's body, is an
// error. It clears m first, so no field of an earlier message survives.
// The message aliases buf (Snapshot and ProgBytes are Blob subslices of
// it), so buf must stay untouched until the message has been consumed: on
// the TCP engine, until HandleMsg returns (docs/WIRE.md, "The frame's
// lifetime rule").
func (m *Msg) Decode(buf []byte) error {
	*m = Msg{}
	d := wire.NewDecoder(buf)
	m.Kind = MsgKind(d.U8())
	m.From = int(d.U32())
	m.HopSeq = d.U64()
	m.AckFloor = d.U64()
	switch body := kinds[m.Kind].body; body {
	case bodyTransfer, bodyCreate:
		d.Raw(m.ProgHash[:])
		m.Snapshot = d.Blob()
		m.MsgrID = d.U64()
		m.LVT = d.F64()
		m.DestNode = logical.NodeID(d.U64())
		m.Last = d.Str()
		m.RemoveLink = readLinkID(&d)
		m.ProgBytes = d.Blob()
		m.Tenant = d.Str()
		m.Session = d.U64()
		if body == bodyCreate {
			m.CreateName = d.Str()
			m.LinkID = readLinkID(&d)
			m.LinkName = d.Str()
			m.LinkDir = d.U8()
			m.Origin = readAddr(&d)
			m.OriginName = d.Str()
		}
	case bodyCreateAck:
		m.LinkID = readLinkID(&d)
		m.Origin = readAddr(&d)
		m.AckPeer = readAddr(&d)
		m.AckPeerName = d.Str()
	case bodyGVT:
		m.GEpoch = int64(d.U64())
		m.GMin = d.F64()
		m.GSent = int64(d.U64())
		m.GRecv = int64(d.U64())
		m.GVT = d.F64()
		m.GPass = d.U8()
	case bodyHopAck:
		m.MsgrID = d.U64()
	case bodyUnknown:
		d.Fail(fmt.Errorf("unknown message kind %d", uint8(m.Kind)))
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: decode %v message: %w", m.Kind, err)
	}
	return nil
}

func appendLinkIDTo(e *wire.Encoder, id logical.LinkID) {
	e.U32(uint32(id.Daemon))
	e.U64(id.Seq)
}

func appendAddrTo(e *wire.Encoder, a logical.Addr) {
	e.U32(uint32(a.Daemon))
	e.U64(uint64(a.Node))
}

func readLinkID(d *wire.Decoder) logical.LinkID {
	return logical.LinkID{Daemon: int(d.U32()), Seq: d.U64()}
}

func readAddr(d *wire.Decoder) logical.Addr {
	return logical.Addr{Daemon: int(d.U32()), Node: logical.NodeID(d.U64())}
}

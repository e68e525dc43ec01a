package core

import (
	"fmt"

	"messengers/internal/bytecode"
	"messengers/internal/logical"
	"messengers/internal/vm"
	"messengers/internal/wire"
)

// MsgKind discriminates daemon-to-daemon messages.
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
	// MsgInject delivers an externally injected Messenger to a daemon.
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
)

// String names the kind.
func (k MsgKind) String() string {
	names := map[MsgKind]string{
		MsgMessenger: "messenger", MsgCreate: "create", MsgCreateAck: "create-ack",
		MsgInject: "inject", MsgGVTNotify: "gvt-notify",
		MsgGVTQuery: "gvt-query", MsgGVTReport: "gvt-report",
		MsgGVTAdvance: "gvt-advance", MsgHopAck: "hop-ack",
		MsgHeartbeat: "heartbeat", MsgGVTToken: "gvt-token",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// Msg is one daemon-to-daemon message. A single struct covers all kinds;
// unused fields stay zero. It has a deterministic binary encoding for the
// TCP transport and for wire-size accounting in the simulator.
type Msg struct {
	Kind MsgKind
	From int

	// Messenger payload (MsgMessenger, MsgCreate, MsgInject).
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

	// Create request (MsgCreate).
	CreateName string
	LinkID     logical.LinkID
	LinkName   string
	LinkDir    uint8 // 0 undirected, 1 origin->new, 2 new->origin
	Origin     logical.Addr
	OriginName string

	// Create ack (MsgCreateAck): LinkID above plus the new node.
	AckPeer     logical.Addr
	AckPeerName string

	// Bytecode aboard a hop, A4 ablation only (MsgrCodeCached off); unread.
	ProgBytes []byte

	// GVT fields (MsgGVT*).
	GEpoch  int64
	GMin    float64
	GSent   int64
	GRecv   int64
	GActive int64
	GVT     float64
	// GPass is the ring-token pass number (MsgGVTToken): 1 accumulates,
	// 2 commits.
	GPass uint8

	// HopSeq is the sender's per-daemon reliable-transfer sequence number
	// (recovery mode; zero otherwise). Together with From it keys duplicate
	// suppression and MsgHopAck matching.
	HopSeq uint64

	// Tenant and Session tag a Messenger admitted through a multi-tenant
	// admission gate (internal/serve); they follow the Messenger through
	// every hop, create, and recovery respawn so quota charging survives
	// migration. Empty/zero outside service mode.
	Tenant  string
	Session uint64
	// Budget is the session's instruction-step budget, carried on the
	// injection frame so a remote admission front end can communicate the
	// grant; daemons account against the gate, not this field.
	Budget int64
	// AckFloor piggybacks the sender's reliable-delivery floor: every
	// HopSeq at or below it has been released (acknowledged and processed),
	// so the receiver can evict its dedup entries up to the floor. Keeps
	// the duplicate-suppression map bounded in long-running service mode.
	AckFloor uint64
}

// CarriesMessenger reports whether this message transfers computation (and
// therefore participates in GVT transient counting).
func (m *Msg) CarriesMessenger() bool {
	return m.Kind == MsgMessenger || m.Kind == MsgCreate || m.Kind == MsgInject
}

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

// EncodedSize is the exact length of the Encode output, implementing
// wire.Sizer. The previous 64+len(Snapshot)+len(ProgBytes) heuristic
// undercounted the variable-length header fields, forcing a mid-encode
// regrow (and full copy) on every large hop.
func (m *Msg) EncodedSize() int {
	return 1 + 4 + len(m.ProgHash) + // Kind, From, ProgHash
		4 + m.SnapshotLen() + // snapshot blob
		8 + 8 + 8 + // MsgrID, LVT, DestNode
		4 + len(m.Last) + 12 + // Last, RemoveLink
		4 + len(m.CreateName) + 12 + 4 + len(m.LinkName) + 1 + // create request
		12 + 4 + len(m.OriginName) + // Origin
		12 + 4 + len(m.AckPeerName) + // AckPeer
		4 + len(m.ProgBytes) + // program blob
		6*8 + 1 + // GVT fields, GPass
		8 + // HopSeq
		4 + len(m.Tenant) + 8 + 8 + 8 + // Tenant, Session, Budget, AckFloor
		4 // reserved tail
}

// AppendTo serializes the message into e in one pass. A Messenger carried
// by XferVM is encoded directly into the frame through a reserved length
// slot — no intermediate snapshot slice is ever built.
func (m *Msg) AppendTo(e *wire.Encoder) {
	e.U8(byte(m.Kind))
	e.U32(uint32(m.From))
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
	e.Str(m.CreateName)
	appendLinkIDTo(e, m.LinkID)
	e.Str(m.LinkName)
	e.U8(m.LinkDir)
	appendAddrTo(e, m.Origin)
	e.Str(m.OriginName)
	appendAddrTo(e, m.AckPeer)
	e.Str(m.AckPeerName)
	e.Blob(m.ProgBytes)
	e.U64(uint64(m.GEpoch))
	e.F64(m.GMin)
	e.U64(uint64(m.GSent))
	e.U64(uint64(m.GRecv))
	e.U64(uint64(m.GActive))
	e.F64(m.GVT)
	e.U8(m.GPass)
	e.U64(m.HopSeq)
	e.Str(m.Tenant)
	e.U64(m.Session)
	e.U64(uint64(m.Budget))
	e.U64(m.AckFloor)
	// Reserved tail: always zero, and DecodeMsg rejects anything else. It
	// keeps frames byte-identical with the committed wire goldens.
	e.U32(0)
}

// Encode serializes the message into a standalone slice, allocated at its
// exact encoded size. The TCP transport uses EncodeFrame (pooled, framed)
// instead.
func (m *Msg) Encode() []byte { //lint:deadcode test support: the wire goldens and decoder tests of several packages
	e := wire.AppendingTo(make([]byte, 0, m.EncodedSize()))
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
// are charged a small fixed size rather than their padded struct encoding.
func (m *Msg) WireSize() int {
	switch m.Kind {
	case MsgMessenger, MsgCreate, MsgInject:
		return 48 + m.SnapshotLen() + len(m.Last) + len(m.CreateName) + len(m.LinkName) + len(m.ProgBytes) + len(m.Tenant)
	default:
		return 64
	}
}

// DecodeMsg deserializes a message produced by Encode, which must be the
// whole of buf: bytes after the reserved tail are an error. The returned Msg
// aliases buf — Snapshot and ProgBytes are wire.Decoder.Blob subslices of
// it — so buf's owner must keep it untouched until the message has been
// consumed. On the TCP engine that is a lifetime rule: the transport owns
// the (pooled) frame until HandleMsg returns and recycles it then, so
// nothing reachable after HandleMsg may keep a subslice of Snapshot or
// ProgBytes. The one inbound consumer, vm.Restore, runs inside HandleMsg
// and copies what it keeps.
func DecodeMsg(buf []byte) (*Msg, error) {
	d := wire.NewDecoder(buf)
	m := &Msg{}
	m.Kind = MsgKind(d.U8())
	m.From = int(d.U32())
	d.Raw(m.ProgHash[:])
	m.Snapshot = d.Blob()
	m.MsgrID = d.U64()
	m.LVT = d.F64()
	m.DestNode = logical.NodeID(d.U64())
	m.Last = d.Str()
	m.RemoveLink = readLinkID(&d)
	m.CreateName = d.Str()
	m.LinkID = readLinkID(&d)
	m.LinkName = d.Str()
	m.LinkDir = d.U8()
	m.Origin = readAddr(&d)
	m.OriginName = d.Str()
	m.AckPeer = readAddr(&d)
	m.AckPeerName = d.Str()
	m.ProgBytes = d.Blob()
	m.GEpoch = int64(d.U64())
	m.GMin = d.F64()
	m.GSent = int64(d.U64())
	m.GRecv = int64(d.U64())
	m.GActive = int64(d.U64())
	m.GVT = d.F64()
	m.GPass = d.U8()
	m.HopSeq = d.U64()
	m.Tenant = d.Str()
	m.Session = d.U64()
	m.Budget = int64(d.U64())
	m.AckFloor = d.U64()
	if n := d.U32(); n != 0 {
		d.Fail(fmt.Errorf("reserved tail is %d, want 0", n))
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: decode %v message: %w", m.Kind, err)
	}
	return m, nil
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

// Package transport provides the TCP engine: daemons exchange Messengers
// over real sockets using the framed binary wire format, exactly as the
// paper's daemons exchange Messengers over a LAN.
//
// The engine drives the same daemon logic as the in-process channel engine;
// what changes is that every inter-daemon message is actually encoded,
// framed, written to a socket, read back, and decoded — so the full wire
// path (vm snapshots, program hashes, link identities, GVT control
// messages) is exercised for real. Daemons listen on per-daemon TCP
// addresses (loopback by default) and dial peers lazily, with exponential
// backoff on redials. Dialed sockets ask for window-based congestion
// control (sockopt_linux.go): a hop is a burst, not a stream.
//
// Sends are coalesced, with no option: a frame goes into its connection's
// buffered writer and leaves when the sending daemon's executor runs dry,
// before that daemon starts a VM segment, or when the buffer fills,
// whichever comes first — so a frame waits behind other sends only, never
// behind computation. One Messenger in flight costs one write per hop;
// a burst of departures costs one write per connection (docs/WIRE.md,
// "A hop is a burst").
//
// For chaos testing the engine supports fault injection on the send path
// (SetFaultHook), daemon kill/revive (KillDaemon/ReviveDaemon), and
// heartbeat-based peer failure detection (StartHeartbeats) that feeds the
// core recovery layer MsgPeerDown and MsgPeerUp notices.
package transport

import (
	"bufio"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"messengers/internal/backoff"
	"messengers/internal/core"
	"messengers/internal/faults"
	"messengers/internal/obs"
	"messengers/internal/wire"
)

// WriteFrame writes one length-prefixed message frame. The message send
// path encodes header and payload into a single pooled buffer instead (see
// Send); this helper remains for hello frames and out-of-band uses.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [wire.FrameHeaderLen]byte
	binary.LittleEndian.PutUint16(hdr[0:], wire.FrameMagic)
	binary.LittleEndian.PutUint16(hdr[2:], wire.FrameVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("transport: write frame body: %w", err)
	}
	return nil
}

// ReadFrame reads one frame written by WriteFrame (or by Msg.EncodeFrame)
// into a fresh slice the caller owns outright: hello frames and out-of-band
// readers use it. The engine's own message path reads pooled frames instead
// (readPooledFrame) and owns them under the lifetime rule stated there.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [wire.FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := wire.ParseFrameHeader(hdr[:])
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return readBody(r, nil, n)
}

// bodyStep is the first step a frame body is read in when the buffer at
// hand is too small for it.
const bodyStep = 64 << 10

// readBody reads an n-byte frame body into buf's storage. A buffer that
// holds n takes the body in one read. Otherwise the header's n is only a
// claim: the body arrives in steps that double what has been received, so
// a peer that announces 64 MB and sends 16 bytes costs one step, not 64 MB.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*len(buf), bodyStep)))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, fmt.Errorf("transport: read frame body: %w", err)
		}
	}
	return buf, nil
}

// readPooledFrame reads one frame into a wire.GetBuf buffer, taken only once
// a header has arrived so an idle connection pins nothing, and returns the
// pool box holding the payload. The transport owns it until the daemon's
// HandleMsg for the message decoded from it has returned, then hands it back
// with wire.PutBuf: decoded messages alias the frame (Snapshot, ProgBytes),
// so nothing that outlives HandleMsg may keep a subslice of it.
func readPooledFrame(r *bufio.Reader) (*[]byte, error) {
	hdr, err := r.Peek(wire.FrameHeaderLen)
	if err != nil {
		return nil, err
	}
	n, err := wire.ParseFrameHeader(hdr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if _, err := r.Discard(wire.FrameHeaderLen); err != nil {
		return nil, err
	}
	// The pool holds whatever sizes its users grew their buffers to; an
	// undersized one is grown as the body arrives and takes its place on
	// PutBuf, so the pool converges on the traffic's sizes.
	box := wire.GetBuf()
	*box, err = readBody(r, *box, n)
	if err != nil {
		wire.PutBuf(box)
		return nil, err
	}
	return box, nil
}

// TCPEngine is a core.Engine whose daemon-to-daemon messages travel over
// real TCP connections. Each daemon has a listener; connections to peers
// are dialed on first use and kept open.
type TCPEngine struct {
	// Executors are the daemons' sharded serial queues: socket readers,
	// timers, and local continuations feed separate lanes, so a storm of
	// inbound hops never contends with GVT control delivery on one mutex.
	*core.Executors

	addrs []string
	// token is drawn at random for this engine, and every connection's
	// hello carries it (hello): a peer that does not know it is refused.
	token [16]byte

	tr *obs.Tracer

	// Send-path state, read without e.mu: the killed flags, the fault hook,
	// and the established connection of each ordered pair (a dedicated
	// connection per pair preserves FIFO delivery). Dial and teardown write
	// the slots under e.mu.
	killed []atomic.Bool
	fault  atomic.Pointer[faults.Hook]
	slots  [][]atomic.Pointer[peerConn] // [src][dst]
	// outs[src] lists the connections holding frames daemon src has sent
	// and nobody has flushed yet.
	outs []outbound

	mu        sync.Mutex
	listeners []net.Listener
	dials     map[connKey]*dialState
	// accepted maps each connection a listener accepted to its daemon.
	// Its reader blocks in a read for as long as the peer keeps it open,
	// so Close and KillDaemon close it rather than wait for the peer.
	accepted map[net.Conn]int

	errs core.ErrorLog // transport-level errors; evictions are transport.errors.dropped
	hb   *heartbeats

	// Nil-safe obs counters, resolved at SetMetrics. frames counts frames
	// handed to a connection's writer and writes the Write calls that
	// reached a socket: writes/frames is the coalescing ratio, read where
	// the work happens.
	reconnects, frames, writes *obs.Counter

	closed  chan struct{}
	closeMu sync.Once
	// netWG tracks accept loops, connection readers, and the heartbeat
	// ticker.
	netWG sync.WaitGroup
}

type connKey struct{ from, to int }

// peerConn is one dialed connection. mu serialises writers (the source's
// executor, the heartbeat ticker, fault-delay timers) on w.
type peerConn struct {
	src, dst int

	mu sync.Mutex
	w  *bufio.Writer
	c  net.Conn
	// dirty: w holds frames and the connection is on its source's outbound
	// list. Guarded by mu.
	dirty bool
	// dead is set before c is closed on purpose (dropConn, KillDaemon,
	// Close): what w still holds is dropped, as it would be in a dead
	// socket's queue, and a write that fails on it is not an error.
	dead atomic.Bool
}

// outbound is one source daemon's list of connections awaiting a flush.
type outbound struct {
	mu    sync.Mutex
	dirty []*peerConn
}

// socketWriter counts the writes that reach a connection's socket.
type socketWriter struct {
	c net.Conn
	e *TCPEngine
}

func (w socketWriter) Write(p []byte) (int, error) {
	w.e.writes.Inc()
	return w.c.Write(p)
}

// dialState is per-ordered-pair redial backoff.
type dialState struct {
	fails     int
	notBefore time.Time
}

// NewTCPEngine starts listeners for n daemons on the given addresses (one
// per daemon; use "127.0.0.1:0" entries for ephemeral ports).
func NewTCPEngine(addrs []string) (*TCPEngine, error) {
	e := &TCPEngine{
		addrs:     make([]string, len(addrs)),
		dials:     map[connKey]*dialState{},
		accepted:  map[net.Conn]int{},
		killed:    make([]atomic.Bool, len(addrs)),
		slots:     make([][]atomic.Pointer[peerConn], len(addrs)),
		outs:      make([]outbound, len(addrs)),
		closed:    make(chan struct{}),
		listeners: make([]net.Listener, len(addrs)),
	}
	if _, err := rand.Read(e.token[:]); err != nil {
		return nil, fmt.Errorf("transport: draw the hello token: %w", err)
	}
	e.Executors = core.NewExecutors(len(addrs), e.Flush)
	for i, addr := range addrs {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("transport: daemon %d listen %s: %w", i, addr, err)
		}
		e.listeners[i] = l
		e.addrs[i] = l.Addr().String()
		e.slots[i] = make([]atomic.Pointer[peerConn], len(addrs))
	}
	for i := range addrs {
		e.netWG.Add(1)
		go func(l net.Listener) {
			defer e.netWG.Done()
			e.acceptLoop(i, l)
		}(e.listeners[i])
	}
	return e, nil
}

// Addrs returns the bound listener addresses, indexed by daemon ID.
func (e *TCPEngine) Addrs() []string {
	out := make([]string, len(e.addrs))
	copy(out, e.addrs)
	return out
}

// SetTracer attaches a tracer: every frame send and receive emits a "net"
// event on the involved daemon's track. Call before any traffic flows.
func (e *TCPEngine) SetTracer(t *obs.Tracer) { e.tr = t }

// SetMetrics attaches a registry for the transport's own counters
// (transport.frames, transport.writes, transport.errors.dropped,
// net.reconnects). Call before traffic flows.
func (e *TCPEngine) SetMetrics(m *obs.Metrics) {
	m.CounterFunc("transport.errors.dropped", e.errs.Dropped)
	e.reconnects = m.Counter("net.reconnects")
	e.frames = m.Counter("transport.frames")
	e.writes = m.Counter("transport.writes")
}

// SetFaultHook installs a fault-injection hook consulted for every outbound
// frame with engine time (nanoseconds since engine start). Call before
// traffic flows; pass nil to restore clean delivery.
func (e *TCPEngine) SetFaultHook(h faults.Hook) {
	if h == nil {
		e.fault.Store(nil)
		return
	}
	e.fault.Store(&h)
}

// Send implements core.Engine: encode header and payload into one pooled
// frame (a Messenger carried by XferVM is serialized here, in a single
// pass, with no intermediate snapshot slice, and XferVM is cleared, so the
// sending daemon keeps the spent VM as a berth) and hand it to the (cached) connection
// from src to dst, where it waits for the flush described in the package
// comment. Frames to or from a killed daemon vanish, as they would with a
// dead process; a write failure tears the connection down so the next send
// redials.
func (e *TCPEngine) Send(src, dst int, msg *core.Msg) {
	if e.killed[src].Load() || e.killed[dst].Load() {
		return
	}
	enc := wire.NewEncoder()
	defer enc.Release()
	if err := msg.EncodeFrame(enc); err != nil {
		e.errs.Add(fmt.Errorf("transport: encode %v message to daemon %d: %w", msg.Kind, dst, err))
		return
	}
	msg.XferVM = nil // serialised: the sender keeps its storage (Daemon.netSend)
	// Heartbeats come from the ticker's goroutine, not from an executor
	// that will run dry: they leave at once.
	now := msg.Kind == core.MsgHeartbeat
	size := enc.Len() - wire.FrameHeaderLen
	if h := e.fault.Load(); h != nil {
		v := (*h)(int64(e.Now()), src, dst, size)
		switch {
		case v.Drop:
			return
		case v.Corrupt:
			// A damaged frame makes the receiver reset the stream: model it
			// by tearing the connection down instead of writing, exercising
			// the redial path.
			e.dropConn(src, dst)
			return
		case v.Delay > 0:
			frame := append([]byte(nil), enc.Bytes()...)
			dup := v.Dup
			time.AfterFunc(time.Duration(v.Delay), func() {
				select {
				case <-e.closed:
					return
				default:
				}
				if dup {
					e.writeFrame(src, dst, frame, false)
				}
				e.writeFrame(src, dst, frame, true)
			})
			return
		}
		if v.Dup {
			e.writeFrame(src, dst, enc.Bytes(), now)
		}
	}
	if e.tr != nil && msg.Kind != core.MsgHeartbeat {
		e.tr.Instant(src, "net", "net.send", obs.I("to", int64(dst)), obs.I("bytes", int64(size)))
	}
	e.writeFrame(src, dst, enc.Bytes(), now)
}

// writeFrame hands one already-encoded frame to the cached connection's
// writer. With now it is on the wire when writeFrame returns; otherwise it
// leaves with the next Flush(src), which src's executor is poked to run.
// A failed write tears the connection down so the next send redials.
func (e *TCPEngine) writeFrame(src, dst int, frame []byte, now bool) {
	pc, err := e.conn(src, dst)
	if err != nil {
		e.errs.Add(err)
		return
	}
	pc.mu.Lock()
	if pc.dead.Load() {
		pc.mu.Unlock()
		return
	}
	e.frames.Inc()
	var werr error
	if len(frame) > pc.w.Available() && pc.w.Buffered() > 0 {
		// What is waiting leaves first, as one write, so that a frame
		// larger than the buffer goes to the socket in one direct Write
		// instead of being cut at the buffer's edge and copied.
		werr = pc.w.Flush()
	}
	if werr == nil {
		// bufio either copies into its buffer or writes straight through
		// before returning, so the pooled frame can be recycled.
		_, werr = pc.w.Write(frame)
	}
	if werr == nil && now {
		werr = pc.w.Flush()
	}
	listed := false
	if werr == nil && !pc.dirty && pc.w.Buffered() > 0 {
		pc.dirty, listed = true, true
	}
	pc.mu.Unlock()
	if werr != nil {
		e.writeFailed(pc, werr)
		return
	}
	if listed {
		out := &e.outs[src]
		out.mu.Lock()
		out.dirty = append(out.dirty, pc)
		out.mu.Unlock()
		// src's own executor reaches its idle hook anyway; a frame from any
		// other goroutine would wait for src's next message without this.
		e.Wake(src)
	}
}

// Flush puts every frame daemon src has sent so far on the wire: one write
// per connection that holds any. It runs when src's executor runs dry and,
// through core's flusher hook, before src starts a VM segment.
func (e *TCPEngine) Flush(src int) {
	out := &e.outs[src]
	out.mu.Lock()
	for i, pc := range out.dirty {
		out.dirty[i] = nil
		pc.mu.Lock()
		pc.dirty = false
		var werr error
		if !pc.dead.Load() {
			werr = pc.w.Flush()
		}
		pc.mu.Unlock()
		if werr != nil {
			e.writeFailed(pc, werr)
		}
	}
	out.dirty = out.dirty[:0]
	out.mu.Unlock()
}

// writeFailed records a write error on pc (unless pc was closed on purpose)
// and discards it so the next send redials.
func (e *TCPEngine) writeFailed(pc *peerConn, werr error) {
	if pc.dead.Load() {
		return
	}
	e.errs.Add(fmt.Errorf("transport: write frame %d->%d: %w", pc.src, pc.dst, werr))
	e.mu.Lock()
	e.slots[pc.src][pc.dst].CompareAndSwap(pc, nil)
	e.mu.Unlock()
	pc.close()
}

// close tears the connection down on purpose: frames still in its writer
// are dropped with it.
func (pc *peerConn) close() {
	pc.dead.Store(true)
	pc.c.Close()
}

// conn returns the cached connection src->dst, dialing it if needed. Failed
// dials back off exponentially with per-pair jitter (50ms doubling to 2s);
// a successful redial after failures counts as a reconnect.
func (e *TCPEngine) conn(src, dst int) (*peerConn, error) {
	slot := &e.slots[src][dst]
	if pc := slot.Load(); pc != nil {
		return pc, nil
	}
	key := connKey{from: src, to: dst}
	e.mu.Lock()
	if pc := slot.Load(); pc != nil {
		e.mu.Unlock()
		return pc, nil
	}
	select {
	case <-e.closed:
		// A dial racing Close must not register a connection the teardown
		// already missed — its reader would outlive the engine.
		e.mu.Unlock()
		return nil, fmt.Errorf("transport: dial daemon %d: engine closed", dst)
	default:
	}
	ds := e.dials[key]
	if ds == nil {
		ds = &dialState{}
		e.dials[key] = ds
	}
	if ds.fails > 0 && time.Now().Before(ds.notBefore) {
		e.mu.Unlock()
		return nil, fmt.Errorf("transport: dial daemon %d: backing off after %d failures", dst, ds.fails)
	}
	addr := e.addrs[dst]
	e.mu.Unlock()

	dialer := net.Dialer{Timeout: dialTimeout, Control: dialControl}
	c, err := dialer.Dial("tcp", addr)
	if err == nil {
		if herr := WriteFrame(c, e.hello(src)); herr != nil {
			c.Close()
			err = herr
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		ds.fails++
		// Jittered per (pair, attempt): after a partition heals, every
		// surviving pair would otherwise redial on the same doubling
		// schedule and collide (see internal/backoff).
		ds.notBefore = time.Now().Add(
			backoff.Jittered(50*time.Millisecond, 2*time.Second, ds.fails, backoff.Key(src, dst, ds.fails, 0)))
		return nil, fmt.Errorf("transport: dial daemon %d: %w", dst, err)
	}
	if other := slot.Load(); other != nil {
		// A concurrent Send dialed the same pair; keep the first.
		c.Close()
		return other, nil
	}
	select {
	case <-e.closed:
		c.Close()
		return nil, fmt.Errorf("transport: dial daemon %d: engine closed", dst)
	default:
	}
	if ds.fails > 0 {
		ds.fails = 0
		e.reconnects.Inc()
	}
	pc := &peerConn{src: src, dst: dst, c: c, w: bufio.NewWriter(socketWriter{c: c, e: e})}
	slot.Store(pc)
	return pc, nil
}

// dropConn discards the cached connection src->dst (if any) so the next
// send redials. Frames it had not flushed are lost with it, like frames in
// a dead socket's queue; under recovery they are unacknowledged and
// retransmitted.
func (e *TCPEngine) dropConn(src, dst int) {
	e.mu.Lock()
	pc := e.slots[src][dst].Swap(nil)
	e.mu.Unlock()
	if pc != nil {
		pc.close()
	}
}

// hello is what a connection from daemon src says first: the engine's
// token, which no peer outside the engine knows, and src's daemon ID.
func (e *TCPEngine) hello(src int) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), e.token[:]...), uint32(src))
}

// helloFrom returns the daemon a hello comes from, and false for any hello
// but one of this engine's.
func (e *TCPEngine) helloFrom(h []byte) (int, bool) {
	n := len(e.token)
	if len(h) != n+4 || subtle.ConstantTimeCompare(h[:n], e.token[:]) != 1 {
		return 0, false
	}
	src := binary.LittleEndian.Uint32(h[n:])
	return int(src), int(src) < len(e.addrs)
}

// dialTimeout bounds a dial to a peer daemon.
const dialTimeout = 5 * time.Second

// helloTimeout bounds how long an accepted connection may take to send its
// hello: as long as a dial may take. Only this package's tests change it.
var helloTimeout = dialTimeout

// acceptLoop receives frames for daemon d on listener l and dispatches them
// on its executor. A connection whose hello is not one of this engine's is
// closed. A frame that fails to decode, or that claims to come from any
// daemon but the hello's, is skipped and counted among the transport's
// errors (the length-prefixed framing keeps the stream aligned), not fatal
// to the connection.
func (e *TCPEngine) acceptLoop(d int, l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			select {
			case <-e.closed:
				return
			default:
			}
			if e.killed[d].Load() {
				return // KillDaemon closed the listener
			}
			e.errs.Add(fmt.Errorf("transport: daemon %d accept: %w", d, err))
			return
		}
		if !e.track(d, c) {
			c.Close()
			continue // the listener is closing too
		}
		e.netWG.Add(1)
		go func() {
			defer e.netWG.Done()
			defer e.untrack(c)
			// A peer that never finishes its hello is dropped when the
			// dialer would have given up on it; frames after the hello may
			// take as long as they take.
			c.SetReadDeadline(time.Now().Add(helloTimeout))
			h, err := ReadFrame(c)
			src, ok := e.helloFrom(h)
			if err != nil || !ok {
				return // a bad or missing hello, or a stranger's
			}
			c.SetReadDeadline(time.Time{})
			r := bufio.NewReader(c)
			// Every frame decodes into msg; Put copies it into the lane.
			var msg core.Msg
			for {
				box, err := readPooledFrame(r)
				if err != nil {
					return // peer closed or stream desynced
				}
				err = msg.Decode(*box)
				if err == nil && msg.From != src {
					err = fmt.Errorf("a %v frame from daemon %d on daemon %d's connection", msg.Kind, msg.From, src)
				}
				if err != nil {
					wire.PutBuf(box)
					e.errs.Add(fmt.Errorf("transport: daemon %d: %w", d, err))
					continue
				}
				if msg.Kind == core.MsgHeartbeat {
					wire.PutBuf(box)
					e.noteHeartbeat(d, msg.From)
					continue
				}
				if e.tr != nil {
					e.tr.Instant(d, "net", "net.recv",
						obs.I("from", int64(msg.From)), obs.I("bytes", int64(len(*box))))
				}
				// The frame goes back to the pool only after HandleMsg has
				// consumed everything msg aliases (see readPooledFrame).
				e.Put(d, core.LaneFor(msg.Kind), &msg, box)
			}
		}()
	}
}

// track registers c, accepted by daemon d's listener, for Close and
// KillDaemon to close. It refuses once either has collected d's
// connections, so that none is missed.
func (e *TCPEngine) track(d int, c net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.closed:
		return false
	default:
	}
	if e.killed[d].Load() {
		return false
	}
	e.accepted[c] = d
	return true
}

// untrack closes an accepted connection whose reader is done.
func (e *TCPEngine) untrack(c net.Conn) {
	e.mu.Lock()
	delete(e.accepted, c)
	e.mu.Unlock()
	c.Close()
}

// acceptedBy lists the accepted connections of daemon d, or of every
// daemon for d < 0. The caller holds e.mu.
func (e *TCPEngine) acceptedBy(d int) []net.Conn {
	var cs []net.Conn
	for c, owner := range e.accepted {
		if d < 0 || owner == d {
			cs = append(cs, c)
		}
	}
	return cs
}

// --- daemon kill / revive (chaos support) ---

// KillDaemon severs daemon d from the network: its listener closes and
// every connection touching it, dialled or accepted, is torn down. Frames
// to or from it vanish. The daemon's executor keeps running (the core's
// down flag gates it); call core's Crash alongside. No-op if already
// killed.
func (e *TCPEngine) KillDaemon(d int) {
	e.mu.Lock()
	if e.killed[d].Load() {
		e.mu.Unlock()
		return
	}
	e.killed[d].Store(true)
	l := e.listeners[d]
	var drop []*peerConn
	for src := range e.slots {
		for dst := range e.slots[src] {
			if src == d || dst == d {
				if pc := e.slots[src][dst].Swap(nil); pc != nil {
					drop = append(drop, pc)
				}
			}
		}
	}
	accepted := e.acceptedBy(d)
	e.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, pc := range drop {
		pc.close()
	}
	for _, c := range accepted {
		c.Close()
	}
	if e.hb != nil {
		e.hb.reset(d)
	}
}

// ReviveDaemon reattaches a killed daemon: a new listener binds the same
// address and heartbeats resume, which is what lets the survivors' failure
// detectors declare it back. Call core's Restart alongside. A closed engine
// revives nothing and says so.
func (e *TCPEngine) ReviveDaemon(d int) error {
	if !e.killed[d].Load() {
		return nil
	}
	addr := e.addrs[d]

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: revive daemon %d: %w", d, err)
	}

	// Close closes e.closed and then takes e.mu to collect the listeners it
	// shuts, so under e.mu either Close has not got that far, and will find
	// this listener and wait for its accept loop, or closed is visible here.
	e.mu.Lock()
	select {
	case <-e.closed:
		e.mu.Unlock()
		l.Close()
		return fmt.Errorf("transport: revive daemon %d: engine closed", d)
	default:
	}
	e.listeners[d] = l
	e.killed[d].Store(false)
	for key, ds := range e.dials {
		if key.from == d || key.to == d {
			ds.fails = 0
			ds.notBefore = time.Time{}
		}
	}
	e.netWG.Add(1)
	e.mu.Unlock()
	if e.hb != nil {
		e.hb.reset(d)
	}

	go func() {
		defer e.netWG.Done()
		e.acceptLoop(d, l)
	}()
	return nil
}

// --- heartbeat failure detection ---

type hbKey struct{ observer, peer int }

type heartbeats struct {
	deadAfter time.Duration
	mu        sync.Mutex
	lastSeen  map[hbKey]time.Time
	down      map[hbKey]bool
}

// reset clears failure-detector state involving daemon d (kill or revive):
// observers get a fresh grace period before re-declaring it dead, and d
// itself forgets stale observations from its downtime.
func (h *heartbeats) reset(d int) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for k := range h.lastSeen {
		if k.observer == d || k.peer == d {
			h.lastSeen[k] = now
		}
	}
	for k := range h.down {
		if k.observer == d {
			delete(h.down, k)
		}
	}
}

// StartHeartbeats begins periodic liveness probing: every interval each
// live daemon sends a MsgHeartbeat to every other live daemon (subject to
// the fault hook, like all traffic); a daemon silent for deadAfter is
// declared dead to each observer by a MsgPeerDown, and a heartbeat from a
// declared-dead daemon revives it by a MsgPeerUp. Call once, after Bind.
func (e *TCPEngine) StartHeartbeats(interval, deadAfter time.Duration) {
	if e.hb != nil {
		return
	}
	hb := &heartbeats{
		deadAfter: deadAfter,
		lastSeen:  map[hbKey]time.Time{},
		down:      map[hbKey]bool{},
	}
	now := time.Now()
	n := e.NumDaemons()
	for o := 0; o < n; o++ {
		for p := 0; p < n; p++ {
			if o != p {
				hb.lastSeen[hbKey{observer: o, peer: p}] = now
			}
		}
	}
	e.hb = hb
	e.netWG.Add(1)
	go func() {
		defer e.netWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.closed:
				return
			case <-t.C:
				e.hbTick()
			}
		}
	}()
}

// noteHeartbeat records a heartbeat received by observer from peer,
// reviving a declared-dead peer.
func (e *TCPEngine) noteHeartbeat(observer, peer int) {
	hb := e.hb
	if hb == nil {
		return
	}
	key := hbKey{observer: observer, peer: peer}
	hb.mu.Lock()
	hb.lastSeen[key] = time.Now()
	wasDown := hb.down[key]
	if wasDown {
		delete(hb.down, key)
	}
	hb.mu.Unlock()
	if wasDown {
		e.Put(observer, core.LaneControl, &core.Msg{Kind: core.MsgPeerUp, From: peer}, nil)
	}
}

// hbTick sends one round of heartbeats and sweeps for silent peers.
func (e *TCPEngine) hbTick() {
	n := e.NumDaemons()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				e.Send(src, dst, &core.Msg{Kind: core.MsgHeartbeat, From: src})
			}
		}
	}
	hb := e.hb
	now := time.Now()
	type event struct{ observer, peer int }
	var deaths []event
	hb.mu.Lock()
	for key, seen := range hb.lastSeen {
		if hb.down[key] || e.killed[key.observer].Load() {
			continue
		}
		if now.Sub(seen) > hb.deadAfter {
			hb.down[key] = true
			deaths = append(deaths, event{key.observer, key.peer})
		}
	}
	hb.mu.Unlock()
	for _, ev := range deaths {
		e.Put(ev.observer, core.LaneControl, &core.Msg{Kind: core.MsgPeerDown, From: ev.peer}, nil)
	}
}

// Close shuts down the engine: executors first — queued daemon work drains
// while the network is still up, so in-flight handler sends still go out,
// and each executor's last act is the flush of what it sent — then
// listeners, connections (dialled and accepted), and the network
// goroutines.
func (e *TCPEngine) Close() {
	e.closeMu.Do(func() {
		close(e.closed)
		e.Executors.Close()
		// Frames buffered by other goroutines since the executors' last
		// flush (nothing in production sends that way).
		for src := range e.outs {
			e.Flush(src)
		}
		e.mu.Lock()
		listeners := append([]net.Listener(nil), e.listeners...)
		var conns []*peerConn
		for src := range e.slots {
			for dst := range e.slots[src] {
				if pc := e.slots[src][dst].Swap(nil); pc != nil {
					conns = append(conns, pc)
				}
			}
		}
		accepted := e.acceptedBy(-1)
		e.mu.Unlock()
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
		for _, pc := range conns {
			pc.close()
		}
		for _, c := range accepted {
			c.Close()
		}
		e.netWG.Wait()
	})
}

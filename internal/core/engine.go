package core

import (
	"sync"
	"time"

	"messengers/internal/lan"
	"messengers/internal/sim"
)

// Engine abstracts how daemons execute and communicate. The daemon logic is
// engine-agnostic: it asks the engine to run work on a daemon's serial
// executor (charging modeled CPU cost where applicable) and to ship
// messages between daemons.
type Engine interface {
	// NumDaemons returns the daemon count.
	NumDaemons() int
	// Exec schedules fn on daemon d's serial executor after charging cost
	// of CPU time (cost is calibrated at 110 MHz; real engines ignore it —
	// the work itself takes real time there).
	Exec(d int, cost sim.Time, fn func())
	// Send ships msg from src to dst; the destination daemon's HandleMsg
	// runs on dst's executor after transfer costs. Send copies or encodes
	// msg before it returns, so the caller may reuse it at once, and
	// HandleMsg borrows its msg only for the call (docs/WIRE.md, "The
	// message's lifetime rule").
	Send(src, dst int, msg *Msg)
	// SetTimer runs fn on d's executor after delay of engine time.
	SetTimer(d int, delay sim.Time, fn func())
	// Now returns the engine clock: simulated time on the simulated
	// engine, monotonic wall time since start on real engines. Trace
	// events are stamped with this clock.
	Now() sim.Time
	// Model returns the cost model, or nil on real engines.
	Model() *lan.CostModel
	// HostSpec describes daemon d's host (zero value on real engines).
	HostSpec(d int) lan.HostSpec
}

// binder is implemented by engines that need the daemon set after
// construction.
type binder interface {
	Bind(daemons []*Daemon)
}

// flusher is implemented by engines whose Send buffers frames (the TCP
// transport): Flush puts everything daemon d has sent so far on the wire.
// The engine flushes on its own when d's executor runs dry; the daemon
// calls it before work that may run long.
type flusher interface {
	Flush(d int)
}

// --- Simulated engine ---

// SimEngine runs daemons as event-driven state machines on a simulated
// cluster: every daemon occupies one host, all CPU work is charged to that
// host, and messages traverse the shared Ethernet. All paper-reproduction
// benchmarks use this engine.
type SimEngine struct {
	Cluster *lan.Cluster
	daemons []*Daemon
	post    *lan.Courier[Msg] // a message in flight is a pooled copy
}

// NewSimEngine wraps a cluster.
func NewSimEngine(c *lan.Cluster) *SimEngine {
	e := &SimEngine{Cluster: c}
	e.post = lan.NewCourier[Msg](c, e)
	return e
}

// Bind attaches the daemon set (called by the System).
func (e *SimEngine) Bind(daemons []*Daemon) { e.daemons = daemons }

// NumDaemons implements Engine.
func (e *SimEngine) NumDaemons() int { return len(e.Cluster.Hosts) }

// Exec implements Engine.
func (e *SimEngine) Exec(d int, cost sim.Time, fn func()) {
	e.Cluster.Hosts[d].ExecScaled(cost, fn)
}

// Send implements Engine: Messenger-carrying messages pay the paper's
// single-copy state-transfer costs; control messages pay small fixed costs.
func (e *SimEngine) Send(src, dst int, msg *Msg) {
	cm := e.Cluster.Model
	size := msg.WireSize()
	var sendCost, recvCost sim.Time
	if msg.CarriesMessenger() {
		sendCost = sim.Time(size) * cm.MsgrSendPerByte
		recvCost = sim.Time(size)*cm.MsgrRecvPerByte + cm.CallFixed
	} else {
		sendCost = cm.CallFixed / 2
		recvCost = cm.CallFixed / 2
	}
	e.post.Send(src, dst, size, sendCost, recvCost, msg)
}

// Receive implements lan.Receiver: the delivery of a message in flight,
// borrowed by HandleMsg for the call.
func (e *SimEngine) Receive(dst int, msg *Msg) { e.daemons[dst].HandleMsg(msg) }

// SetTimer implements Engine.
func (e *SimEngine) SetTimer(d int, delay sim.Time, fn func()) {
	e.Cluster.Kernel.After(delay, func() {
		e.Cluster.Hosts[d].Exec(0, fn)
	})
}

// Now implements Engine with the simulation clock.
func (e *SimEngine) Now() sim.Time { return e.Cluster.Kernel.Now() }

// Model implements Engine.
func (e *SimEngine) Model() *lan.CostModel { return e.Cluster.Model }

// HostSpec implements Engine.
func (e *SimEngine) HostSpec(d int) lan.HostSpec { return e.Cluster.Hosts[d].Spec }

// --- Real concurrent engine (in-process) ---

// ChanEngine is the real runtime on one machine: one goroutine per daemon,
// unbounded sharded inboxes (see ExecQueue), wall-clock timers. Costs are
// ignored — work takes however long it takes.
type ChanEngine struct {
	daemons []*Daemon
	inboxes []*ExecQueue
	start   time.Time
	wg      sync.WaitGroup
}

// NewChanEngine starts n daemon executors.
func NewChanEngine(n int) *ChanEngine {
	e := &ChanEngine{inboxes: make([]*ExecQueue, n), start: time.Now()} //lint:wallclock real engine: wall time is its virtual time
	for i := range e.inboxes {
		e.inboxes[i] = NewExecQueue()
	}
	e.wg.Add(n)
	for i := range e.inboxes {
		q := e.inboxes[i]
		go func() {
			defer e.wg.Done()
			q.Run()
		}()
	}
	return e
}

// Bind attaches the daemon set.
func (e *ChanEngine) Bind(daemons []*Daemon) { e.daemons = daemons }

// NumDaemons implements Engine.
func (e *ChanEngine) NumDaemons() int { return len(e.inboxes) }

// Exec implements Engine (cost ignored: real work takes real time).
func (e *ChanEngine) Exec(d int, _ sim.Time, fn func()) {
	e.inboxes[d].Put(LaneLocal, fn)
}

// Send implements Engine: the closure it queues holds a copy of msg. In-process
// delivery keeps FIFO order per pair within a lane (see ExecQueue for why
// cross-lane reordering is safe).
func (e *ChanEngine) Send(_, dst int, msg *Msg) {
	m := *msg
	e.inboxes[dst].Put(LaneFor(m.Kind), func() { e.daemons[dst].HandleMsg(&m) })
}

// SetTimer implements Engine using wall-clock time (1 engine ns = 1 ns).
// Timer callbacks are control work: watchdogs, retransmissions, GVT pacing.
func (e *ChanEngine) SetTimer(d int, delay sim.Time, fn func()) {
	//lint:wallclock real engine: timers are real timers by definition
	time.AfterFunc(time.Duration(delay), func() {
		e.inboxes[d].Put(LaneControl, fn)
	})
}

// Model implements Engine: no cost model on the real engine.
func (e *ChanEngine) Model() *lan.CostModel { return nil }

// Now implements Engine with monotonic wall time since engine start.
func (e *ChanEngine) Now() sim.Time { return sim.Time(time.Since(e.start)) } //lint:wallclock real engine clock

// HostSpec implements Engine.
func (e *ChanEngine) HostSpec(int) lan.HostSpec { return lan.HostSpec{} }

// Close stops all daemon executors and waits for them to exit. Pending
// work items are discarded.
func (e *ChanEngine) Close() {
	for _, q := range e.inboxes {
		q.Close()
	}
	e.wg.Wait()
}

package core

import (
	"messengers/internal/lan"
	"messengers/internal/sim"
)

// Engine abstracts how daemons execute and communicate. Its one job is to
// deliver a Msg to a daemon's HandleMsg, on that daemon's serial executor:
// at once from another daemon (Send), after a CPU cost (Exec) or after a
// delay (SetTimer). Each copies or encodes msg before it returns, so the
// caller may reuse it at once, and HandleMsg borrows its msg only for the
// call (docs/WIRE.md, "The message's lifetime rule").
type Engine interface {
	// Bind attaches the daemon set (NewSystem calls it once).
	Bind(daemons []*Daemon)
	// NumDaemons returns the daemon count.
	NumDaemons() int
	// Exec delivers msg to daemon d after charging cost of its CPU time
	// (cost is calibrated at 110 MHz; real engines ignore it — the work
	// itself takes real time there).
	Exec(d int, cost sim.Time, msg *Msg)
	// Send delivers msg from src to dst after transfer costs.
	Send(src, dst int, msg *Msg)
	// SetTimer delivers msg to daemon d after delay of engine time.
	SetTimer(d int, delay sim.Time, msg *Msg)
	// Now returns the engine clock: simulated time on the simulated
	// engine, monotonic wall time since start on real engines. Trace
	// events are stamped with this clock.
	Now() sim.Time
	// Model returns the cost model, or nil on real engines.
	Model() *lan.CostModel
	// HostSpec describes daemon d's host (zero value on real engines).
	HostSpec(d int) lan.HostSpec
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
	post    *lan.Courier[Msg] // a message on its way is a pooled copy
}

// NewSimEngine wraps a cluster.
func NewSimEngine(c *lan.Cluster) *SimEngine {
	e := &SimEngine{Cluster: c}
	e.post = lan.NewCourier[Msg](c, e)
	return e
}

// Bind implements Engine.
func (e *SimEngine) Bind(daemons []*Daemon) { e.daemons = daemons }

// NumDaemons implements Engine.
func (e *SimEngine) NumDaemons() int { return len(e.Cluster.Hosts) }

// Exec implements Engine.
func (e *SimEngine) Exec(d int, cost sim.Time, msg *Msg) { e.post.Exec(d, cost, msg) }

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

// Receive implements lan.Receiver: the delivery of a message sent,
// executed or timed, borrowed by HandleMsg for the call.
func (e *SimEngine) Receive(dst int, msg *Msg) { e.daemons[dst].HandleMsg(msg) }

// SetTimer implements Engine.
func (e *SimEngine) SetTimer(d int, delay sim.Time, msg *Msg) { e.post.After(d, delay, msg) }

// Now implements Engine with the simulation clock.
func (e *SimEngine) Now() sim.Time { return e.Cluster.Kernel.Now() }

// Model implements Engine.
func (e *SimEngine) Model() *lan.CostModel { return e.Cluster.Model }

// HostSpec implements Engine.
func (e *SimEngine) HostSpec(d int) lan.HostSpec { return e.Cluster.Hosts[d].Spec }

// --- Real concurrent engine (in-process) ---

// ChanEngine is the real runtime on one machine: one goroutine per daemon,
// unbounded sharded inboxes, wall-clock timers (Executors). Costs are
// ignored — work takes however long it takes.
type ChanEngine struct{ *Executors }

// NewChanEngine starts n daemon executors.
func NewChanEngine(n int) *ChanEngine { return &ChanEngine{NewExecutors(n, nil)} }

// Send implements Engine: the lane holds a copy of msg. In-process delivery
// keeps FIFO order per pair within a lane (see Executors for why
// cross-lane reordering is safe).
func (e *ChanEngine) Send(_, dst int, msg *Msg) { e.Put(dst, LaneFor(msg.Kind), msg, nil) }

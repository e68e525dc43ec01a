package lan

import (
	"fmt"

	"messengers/internal/faults"
	"messengers/internal/obs"
	"messengers/internal/sim"
)

// Bus is the shared Ethernet segment. All transmissions are serialized in
// FIFO order (the medium carries one frame train at a time), which is how a
// 10 Mb/s shared segment behaves under our workloads.
type Bus struct {
	k  *sim.Kernel
	cm *CostModel

	busyUntil sim.Time

	// Observability (nil when off): every frame becomes a span on the bus
	// track and counts into the bus.* counters.
	tr                *obs.Tracer
	track             int
	msgs, bytes, busy *obs.Counter
}

// NewBus returns an idle bus on kernel k.
func NewBus(k *sim.Kernel, cm *CostModel) *Bus {
	return &Bus{k: k, cm: cm}
}

// Transmit queues a message of the given size on the medium and calls
// deliver when the last bit (plus propagation) reaches the destination.
// It returns the time transmission will complete.
func (b *Bus) Transmit(size int, deliver func()) sim.Time {
	tx := b.cm.WireTime(size)
	start := b.k.Now()
	if b.busyUntil > start {
		start = b.busyUntil
	}
	done := start + tx
	b.busyUntil = done
	b.msgs.Inc()
	b.bytes.Add(int64(size))
	b.busy.Add(int64(tx))
	if b.tr != nil {
		b.tr.Span(b.track, "lan", "frame", int64(start), int64(tx), obs.I("bytes", int64(size)))
	}
	if deliver != nil {
		b.k.At(done+b.cm.PropDelay, deliver)
	}
	return done
}

// Host is one workstation: a single CPU serializing all software activity on
// that machine (daemon or pvmd processing, task computation, copies).
type Host struct {
	ID   int
	Spec HostSpec

	k       *sim.Kernel
	cpuFree sim.Time

	// busy counts CPU busy time into host.<i>.busy_ns (nil when off).
	busy *obs.Counter
}

// Exec reserves the host CPU for cost (already scaled) and schedules fn when
// it completes. It returns the completion time.
func (h *Host) Exec(cost sim.Time, fn func()) sim.Time {
	if cost < 0 {
		cost = 0
	}
	start := h.k.Now()
	if h.cpuFree > start {
		start = h.cpuFree
	}
	done := start + cost
	h.cpuFree = done
	h.busy.Add(int64(cost))
	if fn != nil {
		h.k.At(done, fn)
	}
	return done
}

// ExecScaled is Exec with the cost first scaled from the 110 MHz calibration
// to this host's clock rate.
func (h *Host) ExecScaled(base sim.Time, fn func()) sim.Time {
	return h.Exec(h.Spec.scale(base), fn)
}

// ExecProc blocks the calling simulated process while the host CPU performs
// cost worth of work (competing with other activity on the same host).
func (h *Host) ExecProc(p *sim.Proc, cost sim.Time) {
	h.Exec(cost, p.Unparker())
	p.Park()
}

// ExecProcScaled is ExecProc with 110 MHz scaling applied.
func (h *Host) ExecProcScaled(p *sim.Proc, base sim.Time) {
	h.ExecProc(p, h.Spec.scale(base))
}

// Cluster is the simulated testbed: n hosts on one shared Ethernet segment.
type Cluster struct {
	Kernel *sim.Kernel
	Model  *CostModel
	Bus    *Bus
	Hosts  []*Host

	// fault, when non-nil, is consulted for every remote transfer (a
	// Courier's, with src != dst) at transmit time, in deterministic event order. Nil
	// keeps the lossless-LAN behavior byte-identical.
	fault faults.Hook
}

// NewCluster builds a cluster of n identical hosts.
func NewCluster(k *sim.Kernel, cm *CostModel, n int, spec HostSpec) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("lan: cluster needs at least one host, got %d", n))
	}
	c := &Cluster{
		Kernel: k,
		Model:  cm,
		Bus:    NewBus(k, cm),
		Hosts:  make([]*Host, n),
	}
	for i := range c.Hosts {
		c.Hosts[i] = &Host{ID: i, Spec: spec, k: k}
	}
	return c
}

// Observe wires a tracer and metrics registry into the cluster: bus frames
// become spans on a dedicated bus track (one past the last host), and the
// bus.* and host.<i>.busy_ns counters are the cluster's utilization counts.
// Also binds the tracer's clock to the simulation kernel so every trace
// timestamp is simulated time (two identical runs then export
// byte-identical traces). Either argument may be nil.
func (c *Cluster) Observe(tr *obs.Tracer, m *obs.Metrics) {
	busTrack := len(c.Hosts)
	if tr != nil {
		tr.SetClock(func() int64 { return int64(c.Kernel.Now()) })
		tr.NameTrack(busTrack, obs.BusTrackName)
		c.Bus.tr = tr
		c.Bus.track = busTrack
	}
	if m != nil {
		c.Bus.msgs = m.Counter("bus.msgs")
		c.Bus.bytes = m.Counter("bus.bytes")
		c.Bus.busy = m.Counter("bus.busy_ns")
		for _, h := range c.Hosts {
			//lint:obsname per-host series; host IDs are dense and bounded
			h.busy = m.Counter(fmt.Sprintf("host.%d.busy_ns", h.ID))
		}
	}
}

// SetFaultHook installs a fault-injection hook consulted for every remote
// transfer. Pass nil to restore lossless delivery.
func (c *Cluster) SetFaultHook(h faults.Hook) { c.fault = h }

// Receiver takes delivery of the payloads a Courier carries.
type Receiver[P any] interface {
	// Receive runs when a transfer's receive CPU completes on host dst. p
	// is borrowed for the call only: once Receive returns, the record that
	// holds it is zeroed and reused.
	Receive(dst int, p *P)
}

// Courier models full message transfers between the cluster's hosts:
// sender-side CPU (sendCost), bus occupancy for size bytes, then
// receiver-side CPU (recvCost), then delivery to its Receiver. Local
// messages skip the bus but still pay both CPU costs. All CPU costs are
// 110 MHz-calibrated. It also delivers a host's work to itself, after CPU
// (Exec) or a delay (After).
//
// A message on its way is one pooled record that holds a copy of the
// payload. Every stage schedules the record's one bound step, so once the
// pool is warm a transfer allocates nothing.
type Courier[P any] struct {
	c    *Cluster
	r    Receiver[P]
	free []*transfer[P]
}

// NewCourier returns a courier on cluster c delivering to r.
func NewCourier[P any](c *Cluster, r Receiver[P]) *Courier[P] {
	return &Courier[P]{c: c, r: r}
}

// stage is where a transfer is: what its next step does.
type stage uint8

const (
	sending   stage = iota // send CPU done: onto the bus, or to receive CPU if local
	onWire                 // last bit arrived (or After's delay ran): a fault's delay, then receive CPU
	receiving              // receive CPU done: deliver
)

// trip is what a transfer carries, copied whole when the network
// duplicates it.
type trip[P any] struct {
	src, dst, size int
	recvCost       sim.Time
	delay          sim.Time // a fault's extra delay after the bus, still to run
	stage          stage
	p              P
}

// transfer is one message in flight.
type transfer[P any] struct {
	q    *Courier[P]
	step func() // t.advance, bound once
	trip[P]
}

// Send copies *p into a transfer record and starts it from host src to
// host dst. The caller may reuse *p as soon as Send returns.
func (q *Courier[P]) Send(src, dst, size int, sendCost, recvCost sim.Time, p *P) {
	t := q.get()
	t.src, t.dst, t.size, t.recvCost = src, dst, size, recvCost
	t.p = *p
	q.c.Hosts[src].ExecScaled(sendCost, t.step)
}

// Exec copies *p into a record delivered on host dst once its CPU has
// spent cost: one Host.ExecScaled, with no sender and no network.
func (q *Courier[P]) Exec(dst int, cost sim.Time, p *P) {
	t := q.get()
	t.dst, t.recvCost, t.p = dst, cost, *p
	t.receive()
}

// After copies *p into a record delivered on host dst once delay has
// passed and then its CPU is free: Kernel.After, then Host.Exec(0).
func (q *Courier[P]) After(dst int, delay sim.Time, p *P) {
	t := q.get()
	t.dst, t.stage, t.p = dst, onWire, *p
	q.c.Kernel.After(delay, t.step)
}

func (q *Courier[P]) get() *transfer[P] {
	if n := len(q.free); n > 0 {
		t := q.free[n-1]
		q.free = q.free[:n-1]
		return t
	}
	t := &transfer[P]{q: q}
	t.step = t.advance
	return t
}

// put zeroes t, so the pool pins no payload, and returns it to the pool.
func (q *Courier[P]) put(t *transfer[P]) {
	t.trip = trip[P]{}
	q.free = append(q.free, t)
}

// advance runs t's next stage.
func (t *transfer[P]) advance() {
	q := t.q
	switch t.stage {
	case sending:
		if t.src == t.dst {
			t.receive()
			return
		}
		q.transmit(t)
	case onWire:
		if d := t.delay; d > 0 {
			t.delay = 0
			q.c.Kernel.After(d, t.step)
			return
		}
		t.receive()
	case receiving:
		q.r.Receive(t.dst, &t.p)
		q.put(t)
	}
}

// receive charges the receiving host's CPU, then delivers.
func (t *transfer[P]) receive() {
	t.stage = receiving
	t.q.c.Hosts[t.dst].ExecScaled(t.recvCost, t.step)
}

// transmit puts a remote transfer on the bus. The fault hook, if any, is
// consulted here, in deterministic event order: a dropped or corrupted
// frame occupies the wire and is never delivered, a delayed one waits
// after the bus, and a duplicate is a second record holding a copy of the
// payload as it was sent.
func (q *Courier[P]) transmit(t *transfer[P]) {
	c := q.c
	t.stage = onWire
	if c.fault == nil {
		c.Bus.Transmit(t.size, t.step)
		return
	}
	v := c.fault(int64(c.Kernel.Now()), t.src, t.dst, t.size)
	if v.Drop || v.Corrupt {
		// Lost, or rejected by the receiver's CRC.
		c.Bus.Transmit(t.size, nil)
		q.put(t)
		return
	}
	if v.Delay > 0 {
		t.delay = sim.Time(v.Delay)
	}
	c.Bus.Transmit(t.size, t.step)
	if v.Dup {
		u := q.get()
		u.trip = t.trip
		c.Bus.Transmit(u.size, u.step)
	}
}

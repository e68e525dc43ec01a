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
	h.Exec(cost, func() { p.Unpark() })
	p.Park()
}

// ExecProcScaled is ExecProc with 110 MHz scaling applied.
func (h *Host) ExecProcScaled(p *sim.Proc, base sim.Time) {
	h.ExecProc(p, h.Spec.scale(base))
}

// Scale converts a 110 MHz-calibrated cost to this host's clock.
func (h *Host) Scale(base sim.Time) sim.Time { return h.Spec.scale(base) }

// Cluster is the simulated testbed: n hosts on one shared Ethernet segment.
type Cluster struct {
	Kernel *sim.Kernel
	Model  *CostModel
	Bus    *Bus
	Hosts  []*Host

	// fault, when non-nil, is consulted for every remote transfer (Send
	// with src != dst) at transmit time, in deterministic event order. Nil
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

// Send models a full message transfer from host src to host dst:
// sender-side CPU (sendCost), bus occupancy for size bytes, then
// receiver-side CPU (recvCost), then deliver. Local messages skip the bus
// but still pay CPU costs. All CPU costs are 110 MHz-calibrated.
func (c *Cluster) Send(src, dst int, size int, sendCost, recvCost sim.Time, deliver func()) {
	s, d := c.Hosts[src], c.Hosts[dst]
	recvThenDeliver := func() { d.ExecScaled(recvCost, deliver) }
	if src == dst {
		s.ExecScaled(sendCost, recvThenDeliver)
		return
	}
	s.ExecScaled(sendCost, func() {
		if c.fault == nil {
			c.Bus.Transmit(size, recvThenDeliver)
			return
		}
		v := c.fault(int64(c.Kernel.Now()), src, dst, size)
		if v.Drop || v.Corrupt {
			// The frame occupies the wire but is never delivered: lost, or
			// rejected by the receiver's CRC.
			c.Bus.Transmit(size, nil)
			return
		}
		receive := recvThenDeliver
		if v.Delay > 0 {
			delay := sim.Time(v.Delay)
			receive = func() { c.Kernel.After(delay, recvThenDeliver) }
		}
		c.Bus.Transmit(size, receive)
		if v.Dup {
			c.Bus.Transmit(size, receive)
		}
	})
}

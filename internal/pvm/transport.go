package pvm

import (
	"fmt"

	"messengers/internal/obs"
	"messengers/internal/sim"
)

// Send transmits the current send buffer to dst with the given tag
// (pvm_send). The call returns once the sender-side software work is done;
// delivery proceeds asynchronously through the fragment pipeline.
func (p *Proc) Send(dst TID, tag int) {
	p.checkKilled()
	buf := p.send()
	// The message inherits the send buffer's pool reference; the receiver's
	// side releases it (next Recv) and recycles the storage.
	p.sendBuf = nil
	p.deliver(dst, buf.message(p.tid, tag))
}

// Mcast transmits the send buffer to every task in dsts (pvm_mcast). Each
// destination is a separate transfer, as in PVM over UDP.
func (p *Proc) Mcast(dsts []TID, tag int) {
	p.checkKilled()
	buf := p.send()
	p.sendBuf = nil
	n := 0
	for _, dst := range dsts {
		if dst != p.tid {
			n++
		}
	}
	if n == 0 {
		buf.release()
		return
	}
	// Every destination's Buffer shares one backing array; retarget the
	// sender's single reference to the destination count so the storage is
	// recycled only after the last receiver is done with it. No other
	// goroutine holds refs yet, so the plain store is safe.
	if buf.refs != nil {
		buf.refs.Store(int32(n))
	}
	for _, dst := range dsts {
		if dst == p.tid {
			continue
		}
		p.deliver(dst, buf.message(p.tid, tag))
	}
}

func (p *Proc) deliver(dst TID, msg *Buffer) {
	p.m.mu.Lock()
	target, ok := p.m.tasks[dst]
	p.m.mu.Unlock()
	if !ok {
		// PVM reports an error code; messages to dead tasks vanish.
		msg.release()
		return
	}
	if p.m.mo != nil {
		p.m.mo.sends.Inc()
		p.m.mo.sendBytes.Add(int64(msg.length()))
	}
	if p.m.tr != nil {
		p.m.tr.Instant(p.host, "pvm", "pvm.send",
			obs.I("dst", int64(dst)), obs.I("bytes", int64(msg.length())))
	}
	if !p.m.Sim() {
		if p.m.mo != nil {
			p.m.mo.recvs.Inc()
		}
		if p.m.tr != nil {
			p.m.tr.Instant(target.host, "pvm", "pvm.recv",
				obs.I("src", int64(msg.src)), obs.I("bytes", int64(msg.length())))
		}
		target.mbox.deliver(msg)
		return
	}
	// Sender-side software cost: fixed send call plus pvmd handoff copy
	// and per-fragment processing, serialized on this host's CPU (the
	// task blocks for it — it shares the CPU with its pvmd).
	cm := p.m.cm
	frags := cm.Frags(msg.length())
	sendCPU := cm.PVMSendFixed +
		sim.Time(msg.length())*cm.PVMRoutePerByte +
		sim.Time(frags)*cm.PVMFragFixed
	p.Compute(sendCPU)
	t := &transfer{
		m:       p.m,
		srcHost: p.host,
		dstHost: target.host,
		dst:     target,
		msg:     msg,
		frags:   frags,
	}
	t.arriveFn = func() { t.arrive(t.onBus.pop()) }
	t.processedFn = func() { t.fragProcessed(t.atCPU.pop()) }
	t.resendFn = func() { t.sendFrag(t.retx.pop()) }
	t.ackFn = t.acked
	t.pump()
}

// transfer is one in-flight simulated message: fragments flow through the
// shared Ethernet with at most PVMWindow unacknowledged; each fragment is
// processed by the receiving host's CPU (pvmd routing copy) before its
// acknowledgement releases the window slot. A busy receiver therefore
// throttles all of its senders — the manager-funnel effect of §3.1.2.
type transfer struct {
	m        *Machine
	srcHost  int
	dstHost  int
	dst      *Proc
	msg      *Buffer
	frags    int
	sent     int
	inflight int
	done     int

	// A fragment's events carry no state of their own. The bus, a host's
	// CPU and the retransmit timer each fire a transfer's events in the
	// order it scheduled them, so each stage keeps its fragments' indices
	// in a FIFO and one callback per stage, made once per transfer, takes
	// the front.
	onBus, atCPU, retx                     fifo
	arriveFn, processedFn, resendFn, ackFn func()
}

func (t *transfer) fragSize(i int) int {
	cm := t.m.cm
	total := t.msg.length()
	if total == 0 {
		return 64 // empty message still occupies one datagram
	}
	if (i+1)*cm.PVMFragSize <= total {
		return cm.PVMFragSize
	}
	return total - i*cm.PVMFragSize
}

func (t *transfer) pump() {
	cm := t.m.cm
	for t.inflight < cm.PVMWindow && t.sent < t.frags {
		i := t.sent
		t.sent++
		t.inflight++
		t.sendFrag(i)
	}
}

func (t *transfer) sendFrag(i int) {
	if t.srcHost == t.dstHost {
		t.arrive(i)
		return
	}
	t.onBus.push(i)
	t.m.cluster.Bus.Transmit(t.fragSize(i), t.arriveFn)
}

// arrive hands fragment i to the receiving pvmd. A fragment arriving at a
// full pvmd buffer is dropped (UDP) and retransmitted after the fixed
// timeout.
func (t *transfer) arrive(i int) {
	cm := t.m.cm
	size := t.fragSize(i)
	if cm.PVMRxBuffer > 0 && t.m.rxBacklog[t.dstHost]+size > cm.PVMRxBuffer {
		if t.m.mo != nil {
			t.m.mo.drops.Inc()
		}
		if t.m.tr != nil {
			t.m.tr.Instant(t.dstHost, "pvm", "pvm.drop", obs.I("bytes", int64(size)))
		}
		t.retx.push(i)
		t.m.cluster.Kernel.After(cm.PVMRetransmit, t.resendFn)
		return
	}
	t.m.rxBacklog[t.dstHost] += size
	// pvmd processing at the receiver: routing copy plus fixed cost,
	// serialized on the destination host CPU.
	recvCPU := sim.Time(size)*cm.PVMRoutePerByte + cm.PVMFragFixed
	t.atCPU.push(i)
	t.m.cluster.Hosts[t.dstHost].ExecScaled(recvCPU, t.processedFn)
}

func (t *transfer) fragProcessed(i int) {
	t.m.rxBacklog[t.dstHost] -= t.fragSize(i)
	t.done++
	if t.done == t.frags {
		// Reassembled: hand to the task (the user-level unpack copy is
		// charged when the task unpacks).
		t.m.cluster.Hosts[t.dstHost].ExecScaled(t.m.cm.PVMRecvFixed, func() {
			if t.m.mo != nil {
				t.m.mo.recvs.Inc()
			}
			if t.m.tr != nil {
				t.m.tr.Instant(t.dstHost, "pvm", "pvm.recv",
					obs.I("src", int64(t.msg.src)), obs.I("bytes", int64(t.msg.length())))
			}
			t.dst.mbox.deliver(t.msg)
		})
	}
	// Acknowledge to release the sender's window slot.
	if t.srcHost == t.dstHost {
		t.acked()
		return
	}
	t.m.cluster.Bus.Transmit(t.m.cm.PVMAckBytes, t.ackFn)
}

func (t *transfer) acked() {
	t.inflight--
	t.pump()
}

// fifo is a first-in, first-out queue of ints: a ring that doubles when
// full. A transfer's stages hold at most PVMWindow fragments each.
type fifo struct {
	buf     []int
	head, n int
}

func (f *fifo) push(v int) {
	if f.n == len(f.buf) {
		grown := make([]int, max(4, 2*len(f.buf)))
		for k := range f.n {
			grown[k] = f.buf[(f.head+k)%len(f.buf)]
		}
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)%len(f.buf)] = v
	f.n++
}

func (f *fifo) pop() int {
	v := f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return v
}

// Recv blocks until a message matching (src, tag) arrives and returns it
// (pvm_recv); -1 wildcards match anything. The returned buffer is the
// task's active receive buffer, exactly as in PVM: the next Recv/NRecv
// frees it, so unpack what you need before receiving again (Sender and Tag
// remain valid; the payload does not).
func (p *Proc) Recv(src TID, tag int) *Buffer {
	p.checkKilled()
	var got *Buffer
	p.block(func() bool {
		b, ok := p.mbox.match(src, tag)
		if ok {
			got = b
		}
		return ok
	})
	p.recvBuf.release()
	p.recvBuf = got
	return got
}

// NRecv is the non-blocking receive (pvm_nrecv): it returns nil when no
// matching message is queued. A successful NRecv replaces the active
// receive buffer like Recv does.
func (p *Proc) NRecv(src TID, tag int) *Buffer {
	p.checkKilled()
	var b *Buffer
	if p.m.Sim() {
		b, _ = p.mbox.match(src, tag)
	} else {
		p.condMu.Lock()
		b, _ = p.mbox.match(src, tag)
		p.condMu.Unlock()
	}
	if b != nil {
		p.recvBuf.release()
		p.recvBuf = b
	}
	return b
}

// --- groups (pvm_joingroup and friends) ---

type group struct {
	members map[int]TID // instance -> tid
}

// JoinGroupAs joins a named group with an explicit instance number
// (pvm_joingroup). The paper's Fig. 9 indexes workers by block coordinates
// (pid_in_group(i*m+k)); explicit instances make that mapping
// deterministic.
func (p *Proc) JoinGroupAs(name string, inst int) {
	p.checkKilled()
	p.m.mu.Lock()
	g := p.m.groups[name]
	if g == nil {
		g = &group{members: map[int]TID{}}
		p.m.groups[name] = g
	}
	if old, exists := g.members[inst]; exists && old != p.tid {
		p.m.mu.Unlock()
		panic(fmt.Sprintf("pvm: group %q instance %d already taken by tid %d", name, inst, old))
	}
	g.members[inst] = p.tid
	p.m.mu.Unlock()
	p.m.wakeAll() // tasks blocked in Gettid re-check membership
}

// Gettid resolves a group instance to a task ID (pvm_gettid). It blocks
// until the instance has joined, mirroring PVM programs that retry.
func (p *Proc) Gettid(name string, inst int) TID {
	p.checkKilled()
	var tid TID
	p.block(func() bool {
		p.m.mu.Lock()
		defer p.m.mu.Unlock()
		g := p.m.groups[name]
		if g == nil {
			return false
		}
		t, ok := g.members[inst]
		if ok {
			tid = t
		}
		return ok
	})
	return tid
}

// wakeAll wakes every task so it can re-check a blocked condition (group
// membership changes).
func (m *Machine) wakeAll() {
	m.mu.Lock()
	procs := make([]*Proc, 0, len(m.tasks))
	for _, p := range m.tasks {
		procs = append(procs, p)
	}
	m.mu.Unlock()
	for _, p := range procs {
		p.wake()
	}
}

// leaveAllGroups removes an exited task from every group.
func (m *Machine) leaveAllGroups(tid TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.groups {
		for inst, t := range g.members {
			if t == tid {
				delete(g.members, inst)
			}
		}
	}
}

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
	msg := &Buffer{data: buf.data, src: p.tid, tag: tag, refs: buf.refs, box: buf.box}
	p.sendBuf = nil
	p.deliver(dst, msg)
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
		msg := &Buffer{data: buf.data, src: p.tid, tag: tag, refs: buf.refs, box: buf.box}
		p.deliver(dst, msg)
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
		p.m.mo.sendBytes.Add(int64(len(msg.data)))
	}
	if p.m.tr != nil {
		p.m.tr.Instant(p.host, "pvm", "pvm.send",
			obs.I("dst", int64(dst)), obs.I("bytes", int64(len(msg.data))))
	}
	if !p.m.Sim() {
		if p.m.mo != nil {
			p.m.mo.recvs.Inc()
		}
		if p.m.tr != nil {
			p.m.tr.Instant(target.host, "pvm", "pvm.recv",
				obs.I("src", int64(msg.src)), obs.I("bytes", int64(len(msg.data))))
		}
		target.mbox.deliver(msg)
		return
	}
	// Sender-side software cost: fixed send call plus pvmd handoff copy
	// and per-fragment processing, serialized on this host's CPU (the
	// task blocks for it — it shares the CPU with its pvmd).
	cm := p.m.cm
	frags := cm.Frags(len(msg.data))
	sendCPU := cm.PVMSendFixed +
		sim.Time(len(msg.data))*cm.PVMRoutePerByte +
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
}

func (t *transfer) fragSize(i int) int {
	cm := t.m.cm
	total := len(t.msg.data)
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
	cm := t.m.cm
	size := t.fragSize(i)
	arrive := func() {
		// A fragment arriving at a full pvmd buffer is dropped (UDP) and
		// retransmitted after the fixed timeout.
		if cm.PVMRxBuffer > 0 && t.m.rxBacklog[t.dstHost]+size > cm.PVMRxBuffer {
			t.m.stats.Drops++
			if t.m.mo != nil {
				t.m.mo.drops.Inc()
			}
			if t.m.tr != nil {
				t.m.tr.Instant(t.dstHost, "pvm", "pvm.drop", obs.I("bytes", int64(size)))
			}
			t.m.cluster.Kernel.After(cm.PVMRetransmit, func() { t.sendFrag(i) })
			return
		}
		t.m.rxBacklog[t.dstHost] += size
		// pvmd processing at the receiver: routing copy plus fixed cost,
		// serialized on the destination host CPU.
		recvCPU := sim.Time(size)*cm.PVMRoutePerByte + cm.PVMFragFixed
		t.m.cluster.Hosts[t.dstHost].ExecScaled(recvCPU, func() {
			t.m.rxBacklog[t.dstHost] -= size
			t.fragProcessed()
		})
	}
	if t.srcHost == t.dstHost {
		arrive()
		return
	}
	t.m.cluster.Bus.Transmit(size, arrive)
}

func (t *transfer) fragProcessed() {
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
					obs.I("src", int64(t.msg.src)), obs.I("bytes", int64(len(t.msg.data))))
			}
			t.dst.mbox.deliver(t.msg)
		})
	}
	// Acknowledge to release the sender's window slot.
	ackDone := func() {
		t.inflight--
		t.pump()
	}
	if t.srcHost == t.dstHost {
		ackDone()
		return
	}
	t.m.cluster.Bus.Transmit(t.m.cm.PVMAckBytes, ackDone)
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
	next    int
}

type barrier struct {
	need    int
	arrived int
	waiters []*Proc
}

// JoinGroup adds the task to a named group and returns its instance number
// (pvm_joingroup). Instances are assigned in join order.
func (p *Proc) JoinGroup(name string) int {
	p.checkKilled()
	p.m.mu.Lock()
	g := p.m.groups[name]
	if g == nil {
		g = &group{members: map[int]TID{}}
		p.m.groups[name] = g
	}
	inst := g.next
	g.next++
	g.members[inst] = p.tid
	p.m.mu.Unlock()
	p.m.wakeAll() // tasks blocked in Gettid re-check membership
	return inst
}

// JoinGroupAs joins with an explicit instance number. The paper's Fig. 9
// indexes workers by block coordinates (pid_in_group(i*m+k)); explicit
// instances make that mapping deterministic.
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
	if inst >= g.next {
		g.next = inst + 1
	}
	p.m.mu.Unlock()
	p.m.wakeAll()
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

// Gsize returns the current size of a group (pvm_gsize).
func (p *Proc) Gsize(name string) int {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	g := p.m.groups[name]
	if g == nil {
		return 0
	}
	return len(g.members)
}

// Barrier blocks until count tasks have called Barrier on the same name
// (pvm_barrier).
func (p *Proc) Barrier(name string, count int) {
	p.checkKilled()
	p.m.mu.Lock()
	b := p.m.barriers[name]
	if b == nil || b.need == 0 {
		b = &barrier{need: count}
		p.m.barriers[name] = b
	}
	b.arrived++
	release := b.arrived >= b.need
	if release {
		waiters := b.waiters
		b.waiters = nil
		b.arrived = 0
		b.need = 0
		p.m.mu.Unlock()
		for _, w := range waiters {
			w.barrierDone(name)
		}
		return
	}
	b.waiters = append(b.waiters, p)
	p.m.mu.Unlock()
	p.block(func() bool { return p.barrierReleased(name) })
}

// barrier release handshake: a released waiter gets a flag message-style
// wakeup via its mailbox condition.
func (p *Proc) barrierDone(name string) {
	if p.m.Sim() {
		p.releasedBarriers = append(p.releasedBarriers, name)
		p.wake()
		return
	}
	p.condMu.Lock()
	p.releasedBarriers = append(p.releasedBarriers, name)
	p.condMu.Unlock()
	p.wake()
}

func (p *Proc) barrierReleased(name string) bool {
	for i, n := range p.releasedBarriers {
		if n == name {
			p.releasedBarriers = append(p.releasedBarriers[:i], p.releasedBarriers[i+1:]...)
			return true
		}
	}
	return false
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

// Package pvm implements the paper's baseline: a PVM-3-style
// message-passing library (the paper used PVM 3.3).
//
// The API mirrors the calls in the paper's program listings (Fig. 2 and
// Fig. 9): spawn, typed pack/unpack into send buffers, send/receive with
// source and tag matching (wildcards -1), multicast, and groups with
// explicit instances. Tasks run either as real goroutines (NewRealMachine)
// or as blocking processes under the simulated cluster (NewSimMachine).
//
// In simulation the library pays PVM's cost signature, per the paper's
// §2.1 analysis of message-passing overheads: a user-level pack copy at
// the sender and unpack copy at the receiver, pvmd routing copies on both
// hosts, ~4 KB fragmentation with a bounded in-flight window paced by
// receiver acknowledgements, fixed per-message and per-fragment software
// costs, and an expensive serialized pvm_spawn.
package pvm

import (
	"fmt"
	"sync"

	"messengers/internal/lan"
	"messengers/internal/obs"
	"messengers/internal/sim"
)

// TID is a PVM task identifier.
type TID int32

// Wildcards for Recv matching, as in PVM.
const (
	// AnySource matches any sending task.
	AnySource TID = -1
	// AnyTag matches any message tag.
	AnyTag = -1
)

// NoParent is the parent TID of tasks spawned from outside (pvm_parent()
// == PvmNoParent in PVM).
const NoParent TID = 0

// TaskFunc is the body of a PVM task.
type TaskFunc func(p *Proc)

// Machine is the PVM virtual machine: the task table, groups, and the
// transport connecting hosts.
type Machine struct {
	cm      *lan.CostModel
	cluster *lan.Cluster // nil in real mode
	nHosts  int

	// rxBacklog tracks bytes queued at each host's pvmd awaiting
	// processing (kernel thread only).
	rxBacklog map[int]int
	// spawnCost overrides the model's pvm_spawn cost when >= 0 (for
	// experiments that time only a post-startup phase).
	spawnCost sim.Time

	// Observability (nil when off). Events land on the host's track.
	tr *obs.Tracer
	mo *pvmObs

	mu      sync.Mutex
	nextTID TID
	tasks   map[TID]*Proc
	groups  map[string]*group
	errs    []error

	wg sync.WaitGroup // real-mode task goroutines
}

// pvmObs caches the registry instruments the transport updates.
type pvmObs struct {
	sends, sendBytes, recvs, drops *obs.Counter
	packBytes, unpackBytes         *obs.Counter
}

// Observe wires a tracer and metrics registry into the machine: sends,
// deliveries, drops, and pack/unpack copies are counted (pvm.* metrics) and
// emitted as instants on the involved host's track. On a simulated machine
// the tracer clock is bound to the kernel. Either argument may be nil; call
// before spawning tasks.
func (m *Machine) Observe(tr *obs.Tracer, reg *obs.Metrics) {
	m.tr = tr
	if tr != nil && m.cluster != nil {
		k := m.cluster.Kernel
		tr.SetClock(func() int64 { return int64(k.Now()) })
	}
	if reg != nil {
		m.mo = &pvmObs{
			sends:       reg.Counter("pvm.sends"),
			sendBytes:   reg.Counter("pvm.send.bytes"),
			recvs:       reg.Counter("pvm.recvs"),
			drops:       reg.Counter("pvm.drops"),
			packBytes:   reg.Counter("pvm.pack.bytes"),
			unpackBytes: reg.Counter("pvm.unpack.bytes"),
		}
	}
}

// SetSpawnCost overrides the modeled pvm_spawn cost (use 0 for experiments
// whose timed phase begins after the workers are already running).
func (m *Machine) SetSpawnCost(t sim.Time) { m.spawnCost = t }

// NewSimMachine runs PVM tasks as simulated processes on the cluster.
func NewSimMachine(cluster *lan.Cluster) *Machine {
	return &Machine{
		cm:        cluster.Model,
		cluster:   cluster,
		nHosts:    len(cluster.Hosts),
		rxBacklog: map[int]int{},
		spawnCost: -1,
		tasks:     map[TID]*Proc{},
		groups:    map[string]*group{},
	}
}

// NewRealMachine runs PVM tasks as goroutines; nHosts only bounds host
// numbering (placement has no cost meaning on one machine).
func NewRealMachine(nHosts int) *Machine {
	return &Machine{
		nHosts:    nHosts,
		rxBacklog: map[int]int{},
		spawnCost: -1,
		tasks:     map[TID]*Proc{},
		groups:    map[string]*group{},
	}
}

// Sim reports whether this machine is simulated.
func (m *Machine) Sim() bool { return m.cluster != nil }

// Wait blocks until all real-mode tasks have exited (no-op for simulated
// machines, where draining the kernel is the run).
func (m *Machine) Wait() { m.wg.Wait() }

// Errors returns task panics recorded during the run.
func (m *Machine) Errors() []error {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]error, len(m.errs))
	copy(out, m.errs)
	return out
}

func (m *Machine) recordError(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.errs = append(m.errs, err)
}

// taskKilled unwinds a task terminated by Kill.
type taskKilled struct{}

// allocTID reserves a task identifier.
func (m *Machine) allocTID() TID {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTID++
	return m.nextTID
}

// SpawnAt starts a root task on the given host (spawning from outside the
// machine, like starting the manager from the console; free of charge).
func (m *Machine) SpawnAt(name string, host int, fn TaskFunc) TID {
	return m.spawn(name, host, NoParent, fn)
}

func (m *Machine) spawn(name string, host int, parent TID, fn TaskFunc) TID {
	if host < 0 || host >= m.nHosts {
		panic(fmt.Sprintf("pvm: spawn %q on unknown host %d", name, host))
	}
	tid := m.allocTID()
	p := &Proc{m: m, tid: tid, host: host, parent: parent}
	p.mbox = newMailbox(p)
	// The cond must exist before the task is published in m.tasks: any
	// delivery can look the task up and wake() it from another goroutine.
	p.cond = sync.NewCond(&p.condMu)
	m.mu.Lock()
	m.tasks[tid] = p
	m.mu.Unlock()

	body := func() {
		defer func() {
			if r := recover(); r != nil {
				// Kernel.Shutdown ends a live simulated task with the sim's
				// own kill: an unwinding, like Kill's, not a fault.
				if _, ok := r.(taskKilled); !ok && !sim.IsKill(r) {
					m.recordError(fmt.Errorf("pvm: task %q (tid %d) panicked: %v", name, tid, r))
				}
			}
			m.mu.Lock()
			delete(m.tasks, tid)
			m.mu.Unlock()
			m.leaveAllGroups(tid)
		}()
		fn(p)
	}

	if m.Sim() {
		m.cluster.Kernel.Spawn(fmt.Sprintf("pvm:%s@%d", name, host), func(sp *sim.Proc) {
			p.simProc = sp
			body()
		})
	} else {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			body()
		}()
	}
	return tid
}

// Proc is one PVM task's context.
type Proc struct {
	m      *Machine
	tid    TID
	host   int
	parent TID

	mbox    *mailbox
	sendBuf *Buffer
	recvBuf *Buffer // active receive buffer, freed by the next Recv/NRecv
	killed  bool    // guarded by condMu in real mode; kernel thread in sim

	simProc     *sim.Proc // simulated mode
	mboxWaiting bool      // sim: parked in a mailbox wait (vs a CPU wait)
	condMu      sync.Mutex
	cond        *sync.Cond // real mode
}

// MyTID returns the task's identifier (pvm_mytid).
func (p *Proc) MyTID() TID { return p.tid }

// Parent returns the spawning task's TID, or NoParent (pvm_parent).
func (p *Proc) Parent() TID { return p.parent }

// Host returns the host index this task runs on.
func (p *Proc) Host() int { return p.host }

// Spawn starts a child task on the given host (pvm_spawn). In simulation
// it charges the paper-era spawn cost, serialized on the spawning host.
func (p *Proc) Spawn(name string, host int, fn TaskFunc) TID {
	p.checkKilled()
	cost := p.m.spawnCost
	if cost < 0 {
		cost = p.m.costOrZero(func(cm *lan.CostModel) sim.Time { return cm.PVMSpawnCost })
	}
	p.Compute(cost)
	return p.m.spawn(name, host, p.tid, fn)
}

// Compute charges modeled CPU work (110 MHz-calibrated), contending with
// everything else on this host. Real mode: no-op — real work takes real
// time.
func (p *Proc) Compute(cost sim.Time) {
	if p.m.Sim() && cost > 0 {
		p.m.cluster.Hosts[p.host].ExecProcScaled(p.simProc, cost)
	}
}

// Kill terminates another task (pvm_kill). The victim unwinds at its next
// blocking or packing call.
func (p *Proc) Kill(victim TID) { p.m.Kill(victim) }

// Kill terminates a task from outside any task context — fault injectors
// and chaos harnesses crash "hosts" by killing their tasks on a schedule.
// On a simulated machine the call must come from the kernel thread (an
// event callback); on a real machine any goroutine may call it. The victim
// unwinds at its next blocking or packing call; killing an unknown or
// already-exited TID is a no-op, like pvm_kill on a stale task id.
func (m *Machine) Kill(victim TID) {
	m.mu.Lock()
	v, ok := m.tasks[victim]
	m.mu.Unlock()
	if !ok {
		return
	}
	v.mbox.kill()
}

// Exited reports whether tid is not, or is no longer, a running task: it
// returned, called Exit, or was killed and has unwound. It is what
// pvm_notify(PvmTaskExit) tells a PVM program about a peer.
func (m *Machine) Exited(tid TID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, running := m.tasks[tid]
	return !running
}

// Running returns the number of tasks that have not exited.
func (m *Machine) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tasks)
}

func (p *Proc) checkKilled() {
	if p.m.Sim() {
		if p.killed {
			panic(taskKilled{})
		}
		return
	}
	p.condMu.Lock()
	k := p.killed
	p.condMu.Unlock()
	if k {
		panic(taskKilled{})
	}
}

func (m *Machine) costOrZero(f func(cm *lan.CostModel) sim.Time) sim.Time {
	if m.cm == nil {
		return 0
	}
	return f(m.cm)
}

// block parks the task until ready() returns true. ready is evaluated under
// condMu in real mode and on the kernel thread in simulation.
func (p *Proc) block(ready func() bool) {
	if p.m.Sim() {
		for !ready() {
			p.checkKilled()
			p.mboxWaiting = true
			p.simProc.Park()
			p.mboxWaiting = false
		}
		p.checkKilled()
		return
	}
	p.condMu.Lock()
	for !ready() {
		if p.killed {
			p.condMu.Unlock()
			panic(taskKilled{})
		}
		p.cond.Wait()
	}
	killed := p.killed
	p.condMu.Unlock()
	if killed {
		panic(taskKilled{})
	}
}

// wake is called by deliveries (event context in simulation, any goroutine
// in real mode). In simulation it only unparks a task blocked on its
// mailbox — a task parked waiting for the host CPU has its own wake-up.
func (p *Proc) wake() {
	if p.m.Sim() {
		if p.simProc != nil && p.mboxWaiting && p.simProc.Parked() {
			p.simProc.Unpark()
		}
		return
	}
	p.condMu.Lock()
	p.cond.Broadcast()
	p.condMu.Unlock()
}

package protocols

import (
	"fmt"
	"sort"
	"time"

	"messengers/internal/backoff"
	"messengers/internal/faults"
	"messengers/internal/lan"
	"messengers/internal/obs"
	"messengers/internal/pvm"
	"messengers/internal/sim"
)

// The PVM-style baselines: each protocol re-done as stationary tasks
// exchanging messages — the paper's "messages" side of the comparison.
//
// The simulated PVM transport rides the modeled bus directly, below the
// cluster's fault hook, and the real machine's transport is in-process
// channels; so fault injection happens here, at the application layer, by
// consulting the same faults.Injector stream the Messenger engines use.
// That forces the baselines to hand-roll exactly what the Messenger
// runtime provides as a service: sequence numbers, acks, deduplication,
// and jittered retransmission (the rt type). The cost asymmetry —
// reliability as a runtime service versus reliability re-implemented per
// application — is part of the measurement, not an accident of it.

const (
	rtTagData = 71
	rtTagAck  = 72
)

// Polling quanta and retransmission timeouts, per engine. Sim tasks
// advance simulated time with Compute; real tasks sleep.
const (
	rtSimTick  = 100 * sim.Microsecond
	rtWallTick = 2 * time.Millisecond
	rtSimRTO   = int64(2 * sim.Millisecond)
	rtSimMax   = int64(16 * sim.Millisecond)
	rtWallRTO  = int64(40 * time.Millisecond)
	rtWallMax  = int64(640 * time.Millisecond)
)

// rtBudget bounds every polling loop: nemesis plans always heal, so a
// budget generous enough to outlast the worst fault window means budget
// exhaustion is "the protocol legitimately cannot proceed" (a blocked 2PC
// participant), never a truncated run.
const (
	rtSimBudget  = 6000 // ticks: 600ms simulated
	rtWallBudget = 10000
)

// pvmEnv is the shared context of one PVM protocol run.
type pvmEnv struct {
	machine *pvm.Machine
	kernel  *sim.Kernel // nil on the real engine
	inj     *faults.Injector
	rec     *Recorder
	m       *obs.Metrics
	start   time.Time
	ready   chan struct{} // closed once all tasks are spawned
	hosts   map[pvm.TID]int

	appMsgs  *obs.Counter // proto.pvm.msgs: logical protocol messages
	appBytes *obs.Counter // proto.pvm.msg.bytes: their payload bytes
}

func newPVMEnv(engine string, hosts int, plan *faults.Plan, rec *Recorder, m *obs.Metrics) (*pvmEnv, error) {
	env := &pvmEnv{
		rec:      rec,
		m:        m,
		start:    time.Now(),
		ready:    make(chan struct{}),
		hosts:    map[pvm.TID]int{},
		appMsgs:  m.Counter("proto.pvm.msgs"),
		appBytes: m.Counter("proto.pvm.msg.bytes"),
	}
	switch engine {
	case EngineSim:
		env.kernel = sim.New()
		cluster := lan.NewCluster(env.kernel, lan.DefaultCostModel(), hosts, lan.SPARC110)
		env.machine = pvm.NewSimMachine(cluster)
	case EngineReal:
		env.machine = pvm.NewRealMachine(hosts)
	default:
		return nil, fmt.Errorf("protocols: unknown engine %q", engine)
	}
	env.machine.Observe(nil, m)
	if plan != nil {
		env.inj = faults.NewInjector(plan, m, nil)
	}
	return env, nil
}

// now is the injector clock: simulated nanoseconds on the sim engine, wall
// nanoseconds since run start on the real one.
func (env *pvmEnv) now() int64 {
	if env.kernel != nil {
		return int64(env.kernel.Now())
	}
	return int64(time.Since(env.start))
}

// spawn registers the task's host so the injector can map TID routes onto
// the plan's daemon indices. Must be called before run.
func (env *pvmEnv) spawn(name string, host int, fn func(p *pvm.Proc, r *rt)) pvm.TID {
	tid := env.machine.SpawnAt(name, host, func(p *pvm.Proc) {
		if env.kernel == nil {
			<-env.ready // real tasks start instantly; wait for full spawn table
		}
		fn(p, newRT(env, p))
	})
	env.hosts[tid] = host
	return tid
}

// scheduleKill crashes a task at time at (nanoseconds): the PVM rendering
// of the leader-crash nemesis. There is no respawn — a PVM task's state
// dies with it, which is exactly the blocking behavior the checkers must
// tolerate (and the Messenger engine's daemon-restart machinery is the
// counterpoint to).
func (env *pvmEnv) scheduleKill(victim pvm.TID, at int64) {
	if env.kernel != nil {
		env.kernel.At(sim.Time(at), func() { env.machine.Kill(victim) })
		return
	}
	time.AfterFunc(time.Duration(at), func() { env.machine.Kill(victim) })
}

// run drives the machine to quiescence and filters expected chaos noise.
func (env *pvmEnv) run() error {
	close(env.ready)
	if env.kernel != nil {
		defer env.kernel.Shutdown()
		env.kernel.Run()
		return pvmErrorsFatal(env.machine.Errors())
	}
	done := make(chan struct{})
	go func() {
		env.machine.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(realRunTimeout):
		return fmt.Errorf("protocols: pvm real run did not quiesce within %v", realRunTimeout)
	}
	return pvmErrorsFatal(env.machine.Errors())
}

func pvmErrorsFatal(errs []error) error {
	for _, e := range errs {
		return fmt.Errorf("protocols: pvm task error: %w", e)
	}
	return nil
}

// budget returns the per-task polling budget for this engine.
func (env *pvmEnv) budget() int {
	if env.kernel != nil {
		return rtSimBudget
	}
	return rtWallBudget
}

type rtKey struct {
	peer pvm.TID
	seq  int64
}

type rtMsg struct {
	Src  pvm.TID
	Vals []int64
}

type rtPend struct {
	dst      pvm.TID
	seq      int64
	vals     []int64
	attempts int
	due      int64
}

// rt is one task's reliable transport endpoint: at-least-once delivery
// with dedup over the lossy (injector-mediated) wire. Every payload is a
// flat int64 vector — all three protocols speak integers.
type rt struct {
	env     *pvmEnv
	p       *pvm.Proc
	nextSeq int64
	seen    map[rtKey]bool
	pend    map[rtKey]*rtPend
	inbox   []rtMsg
}

func newRT(env *pvmEnv, p *pvm.Proc) *rt {
	return &rt{env: env, p: p, seen: map[rtKey]bool{}, pend: map[rtKey]*rtPend{}}
}

// send transmits one logical protocol message reliably: it is recorded in
// the app-level cost counters once, retransmitted until acked.
func (r *rt) send(dst pvm.TID, vals ...int64) {
	r.env.appMsgs.Inc()
	r.env.appBytes.Add(int64(8 * (len(vals) + 2)))
	r.nextSeq++
	pe := &rtPend{dst: dst, seq: r.nextSeq, vals: vals}
	pe.due = r.env.now() + r.rto(pe)
	r.pend[rtKey{dst, pe.seq}] = pe
	r.xmit(dst, rtTagData, pe.seq, vals)
}

func (r *rt) rto(pe *rtPend) int64 {
	base, max := rtSimRTO, rtSimMax
	if r.env.kernel == nil {
		base, max = rtWallRTO, rtWallMax
	}
	return int64(backoff.Jittered(time.Duration(base), time.Duration(max), pe.attempts,
		backoff.Key(int(r.p.MyTID()), int(pe.dst), int(pe.seq), pe.attempts)))
}

// xmit puts one frame on the wire, subject to the fault plan. Delay
// verdicts are folded into the next retransmission interval rather than
// modeled in-flight — the modeled bus already has latency of its own.
func (r *rt) xmit(dst pvm.TID, tag int, seq int64, vals []int64) {
	size := 8 * (len(vals) + 2)
	n := 1
	if r.env.inj != nil {
		v := r.env.inj.Decide(r.env.now(), r.p.Host(), r.env.hosts[dst], size)
		if v.Drop || v.Corrupt {
			n = 0
		} else if v.Dup {
			n = 2
		}
	}
	for i := 0; i < n; i++ {
		r.p.InitSend()
		r.p.PkInt(seq, int64(len(vals)))
		if len(vals) > 0 {
			r.p.PkInt(vals...)
		}
		r.p.Send(dst, tag)
	}
}

// poll drains the mailbox: data frames are acked (always — the ack pays
// for dedup) and delivered once; ack frames retire pending retransmits.
func (r *rt) poll() {
	for {
		b := r.p.NRecv(pvm.AnySource, rtTagData)
		if b == nil {
			break
		}
		src := b.Sender()
		seq := r.p.UpkInt(b)
		n := int(r.p.UpkInt(b))
		vals := make([]int64, n)
		for i := 0; i < n; i++ {
			vals[i] = r.p.UpkInt(b)
		}
		r.xmit(src, rtTagAck, seq, nil)
		k := rtKey{src, seq}
		if !r.seen[k] {
			r.seen[k] = true
			r.inbox = append(r.inbox, rtMsg{Src: src, Vals: vals})
		}
	}
	for {
		b := r.p.NRecv(pvm.AnySource, rtTagAck)
		if b == nil {
			break
		}
		delete(r.pend, rtKey{b.Sender(), r.p.UpkInt(b)})
	}
}

// step runs one scheduler quantum: poll, retransmit what is due, advance
// time (simulated CPU work on the sim engine, a short sleep on the real
// one). A message to a task that has exited is given up (PVM's
// pvm_notify(PvmTaskExit)): nobody is left to ack it.
func (r *rt) step() {
	r.poll()
	now := r.env.now()
	// Sorted order: map iteration order would randomize the injector's
	// draw sequence and break seed-for-seed reproducibility on the sim
	// engine.
	var due []*rtPend
	for k, pe := range r.pend {
		if r.env.machine.Exited(pe.dst) {
			delete(r.pend, k)
		} else if now >= pe.due {
			due = append(due, pe)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].dst != due[j].dst {
			return due[i].dst < due[j].dst
		}
		return due[i].seq < due[j].seq
	})
	for _, pe := range due {
		pe.attempts++
		pe.due = now + r.rto(pe)
		r.xmit(pe.dst, rtTagData, pe.seq, pe.vals)
	}
	if r.env.kernel != nil {
		r.p.Compute(rtSimTick)
		return
	}
	time.Sleep(rtWallTick)
}

// recv returns the next delivered message, stepping until one arrives, the
// budget runs out, or every other task has exited and left the mailbox
// empty (nil).
func (r *rt) recv(budget *int) *rtMsg {
	for {
		if len(r.inbox) > 0 {
			msg := r.inbox[0]
			r.inbox = r.inbox[1:]
			return &msg
		}
		if *budget <= 0 {
			return nil
		}
		if r.env.machine.Running() == 1 {
			// Alone: whatever the others sent is in the mailbox already.
			if r.poll(); len(r.inbox) == 0 {
				return nil
			}
			continue
		}
		*budget--
		r.step()
	}
}

// flush keeps stepping until every sent message is acked or the budget
// runs out — a sender's graceful drain before exit.
func (r *rt) flush(budget *int) {
	for len(r.pend) > 0 && *budget > 0 {
		*budget--
		r.step()
	}
}

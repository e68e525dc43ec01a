package core

import (
	"sync"
	"sync/atomic"
	"time"

	"messengers/internal/lan"
	"messengers/internal/sim"
	"messengers/internal/wire"
)

// Executors is what the real engines, ChanEngine and the TCP transport,
// share: one serial executor per daemon, whose goroutine hands the messages
// queued on it to the daemon's HandleMsg one at a time; Exec, and SetTimer
// on wall-clock timers; the engine clock; and no cost model.
//
// An executor's queue is sharded. The previous design funneled every
// producer — GVT control traffic, inbound hop delivery, and the daemon's
// own instruction-retirement continuations — through one mutex, which at
// scale made the lock itself the serialization point. Here each class of
// work has its own lane with its own mutex, so producers of different
// classes never contend; a single consumer goroutine still drains them
// serially, preserving the daemon's executor-confinement contract.
//
// Lanes also encode priority: control work (GVT tokens, acks, timers)
// runs before queued hop deliveries, which run before the daemon's own
// continuations. That keeps virtual-time synchronization responsive when a
// daemon has a deep backlog of arrivals. The reorder across lanes is safe:
// the GVT commit rule tolerates late-counted arrivals (unbalanced counters
// just retry the round), and every FIFO-dependent pair of messages —
// Messenger after CreateAck over the same link, duplicates behind originals
// — shares the net lane, whose internal order is strict FIFO.
type Executors struct {
	execs []executor
	start time.Time
	// idle, if not nil, runs on daemon d's executor each time it runs dry,
	// before it blocks, and once more as it stops: the TCP transport
	// flushes the frames the drained messages sent there.
	idle func(d int)
	wg   sync.WaitGroup
}

// executor is one daemon's queue.
type executor struct {
	lanes  [numLanes]execLane
	ready  chan struct{} // a wake-up, pending or not: put, Wake and Close send one
	closed atomic.Bool
	// d is the daemon whose HandleMsg runs what is queued (Bind, before
	// anything is put).
	d *Daemon
}

// ExecLane classifies work for an executor. Lower values drain first.
type ExecLane int

// The lanes, in drain-priority order.
const (
	// LaneControl: GVT synchronization, reliable-delivery acks, liveness
	// probes and notices, and timers (watchdogs, retransmissions).
	LaneControl ExecLane = iota
	// LaneNet: inbound messages that carry computation or mutate the
	// logical network (Messengers, creates, create acks).
	// Strict FIFO — cross-daemon ordering invariants all live here.
	LaneNet
	// LaneLocal: what Exec delivers: the daemon's own continuations (VM
	// segment retirement, hop resolution), injections, System.Do.
	LaneLocal
	numLanes
)

// LaneFor maps a message kind to the lane its delivery by Send runs on.
func LaneFor(k MsgKind) ExecLane { return kinds[k].lane }

// queued is one lane entry: a copy of the message and, if it was decoded
// from a pooled frame, that frame, which goes back to the pool once
// HandleMsg has returned (docs/WIRE.md, "The frame's lifetime rule").
type queued struct {
	msg   Msg
	frame *[]byte
}

// execLane is one FIFO: items[head:] are pending. Popping advances head
// instead of reslicing, so the backing array is reused from its base once
// the lane empties and put allocates only when the backlog outgrows it.
type execLane struct {
	mu    sync.Mutex
	items []queued
	head  int
}

func (l *execLane) put(msg *Msg, frame *[]byte) {
	l.mu.Lock()
	if len(l.items) == cap(l.items) && l.head > len(l.items)/2 {
		// A lane that never quite empties: slide the pending tail down over
		// the popped half instead of growing behind it.
		n := copy(l.items, l.items[l.head:])
		clear(l.items[n:])
		l.items, l.head = l.items[:n], 0
	}
	l.items = append(l.items, queued{*msg, frame})
	l.mu.Unlock()
}

// pop moves the oldest entry into *q.
func (l *execLane) pop(q *queued) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == len(l.items) {
		return false
	}
	*q = l.items[l.head]
	l.items[l.head] = queued{}
	l.head++
	if l.head == len(l.items) {
		l.items, l.head = l.items[:0], 0
	}
	return true
}

// next pops the highest-priority pending entry into *it.
func (q *executor) next(it *queued) bool {
	for i := range q.lanes {
		if q.lanes[i].pop(it) {
			return true
		}
	}
	return false
}

// NewExecutors starts n daemon executors, with idle as their idle hook.
func NewExecutors(n int, idle func(d int)) *Executors {
	x := &Executors{execs: make([]executor, n), start: time.Now(), idle: idle} //lint:wallclock real engine: wall time is its virtual time
	x.wg.Add(n)
	for i := range x.execs {
		x.execs[i].ready = make(chan struct{}, 1)
		go x.run(i)
	}
	return x
}

// run is daemon i's executor: it drains the queue until Close. Messages
// still queued at Close are handled before it returns only if already
// visible; late stragglers are discarded.
func (x *Executors) run(i int) {
	defer x.wg.Done()
	q := &x.execs[i]
	var it queued
	for {
		if q.next(&it) {
			q.d.HandleMsg(&it.msg)
			if it.frame != nil {
				wire.PutBuf(it.frame)
			}
			continue
		}
		if x.idle != nil {
			x.idle(i)
		}
		if q.closed.Load() {
			return
		}
		<-q.ready
	}
}

// Bind implements Engine.
func (x *Executors) Bind(daemons []*Daemon) {
	for i := range x.execs {
		x.execs[i].d = daemons[i]
	}
}

// NumDaemons implements Engine.
func (x *Executors) NumDaemons() int { return len(x.execs) }

// Exec implements Engine (cost ignored: real work takes real time).
func (x *Executors) Exec(d int, _ sim.Time, msg *Msg) { x.Put(d, LaneLocal, msg, nil) }

// SetTimer implements Engine with a wall-clock timer (1 engine ns = 1 ns).
func (x *Executors) SetTimer(d int, delay sim.Time, msg *Msg) {
	m := *msg
	//lint:wallclock real engine: timers are real timers by definition
	time.AfterFunc(time.Duration(delay), func() { x.Put(d, LaneControl, &m, nil) })
}

// Put queues a copy of msg, and the pooled frame it was decoded from if
// any, on daemon d's lane. Puts after Close are dropped.
func (x *Executors) Put(d int, lane ExecLane, msg *Msg, frame *[]byte) {
	if x.execs[d].closed.Load() {
		return
	}
	x.execs[d].lanes[lane].put(msg, frame)
	x.Wake(d) // if one is already pending the executor re-scans anyway
}

// Wake makes daemon d's executor re-scan, and so run its idle hook again:
// for work handed to the hook from another goroutine.
func (x *Executors) Wake(d int) {
	select {
	case x.execs[d].ready <- struct{}{}:
	default:
	}
}

// Now implements Engine with monotonic wall time since engine start.
func (x *Executors) Now() sim.Time { return sim.Time(time.Since(x.start)) } //lint:wallclock real engine clock

// Model implements Engine: no cost model on a real engine.
func (x *Executors) Model() *lan.CostModel { return nil }

// HostSpec implements Engine.
func (x *Executors) HostSpec(int) lan.HostSpec { return lan.HostSpec{} }

// Close stops every executor and waits for it to exit, which it does once
// it has handled what it already holds. Later puts are dropped.
func (x *Executors) Close() {
	for i := range x.execs {
		x.execs[i].closed.Store(true)
		x.Wake(i)
	}
	x.wg.Wait()
}

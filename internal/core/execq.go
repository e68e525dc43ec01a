package core

import (
	"sync"
	"sync/atomic"
)

// ExecQueue is the sharded per-daemon executor queue used by the real
// engines (ChanEngine and the TCP transport). The previous design funneled
// every producer — GVT control traffic, inbound hop delivery, and the
// daemon's own instruction-retirement continuations — through one mutex,
// which at scale made the lock itself the serialization point. Here each
// class of work has its own lane with its own mutex, so producers of
// different classes never contend; a single consumer goroutine still drains
// them serially, preserving the daemon's executor-confinement contract.
//
// Lanes also encode priority: control work (GVT tokens, acks, watchdog
// timers) runs before queued hop deliveries, which run before local
// continuations. That keeps virtual-time synchronization responsive when a
// daemon has a deep backlog of arrivals. The reorder across lanes is safe:
// the GVT commit rule tolerates late-counted arrivals (unbalanced counters
// just retry the round), and every FIFO-dependent pair of messages —
// Messenger after CreateAck over the same link, duplicates behind originals
// — shares the net lane, whose internal order is strict FIFO.
type ExecQueue struct {
	lanes  [numLanes]execLane
	ready  chan struct{}
	done   chan struct{}
	closed atomic.Bool
	idle   func()
}

// ExecLane classifies work for an ExecQueue. Lower values drain first.
type ExecLane int

// The lanes, in drain-priority order.
const (
	// LaneControl: GVT synchronization, reliable-delivery acks, liveness
	// probes, and timer callbacks (watchdogs, retransmissions).
	LaneControl ExecLane = iota
	// LaneNet: inbound messages that carry computation or mutate the
	// logical network (Messengers, creates, create acks).
	// Strict FIFO — cross-daemon ordering invariants all live here.
	LaneNet
	// LaneLocal: the daemon's own continuations (VM segment retirement,
	// hop resolution, injection).
	LaneLocal
	numLanes
)

// LaneFor maps a message kind to the lane its delivery runs on.
func LaneFor(k MsgKind) ExecLane { return kinds[k].lane }

// execLane is one FIFO: items[head:] are pending. Popping advances head
// instead of reslicing, so the backing array is reused from its base once
// the lane empties and put allocates only when the backlog outgrows it.
type execLane struct {
	mu    sync.Mutex
	items []func()
	head  int
}

func (l *execLane) put(fn func()) {
	l.mu.Lock()
	if len(l.items) == cap(l.items) && l.head > len(l.items)/2 {
		// A lane that never quite empties: slide the pending tail down over
		// the popped half instead of growing behind it.
		n := copy(l.items, l.items[l.head:])
		clear(l.items[n:])
		l.items, l.head = l.items[:n], 0
	}
	l.items = append(l.items, fn)
	l.mu.Unlock()
}

func (l *execLane) pop() (func(), bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == len(l.items) {
		return nil, false
	}
	fn := l.items[l.head]
	l.items[l.head] = nil
	l.head++
	if l.head == len(l.items) {
		l.items, l.head = l.items[:0], 0
	}
	return fn, true
}

// NewExecQueue returns an empty queue; the caller runs Run in the daemon's
// executor goroutine.
func NewExecQueue() *ExecQueue {
	return &ExecQueue{
		ready: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// OnIdle installs fn to run on the executor goroutine each time the queue
// runs dry, before it blocks, and once more as Run returns. The TCP
// transport flushes the frames the drained items sent there. Call before
// Run.
func (q *ExecQueue) OnIdle(fn func()) { q.idle = fn }

// Wake makes a blocked Run re-scan, and so run its idle hook again: for
// work handed to the hook from another goroutine.
func (q *ExecQueue) Wake() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// Put enqueues fn on the given lane. Puts after Close are dropped.
func (q *ExecQueue) Put(lane ExecLane, fn func()) {
	if q.closed.Load() {
		return
	}
	q.lanes[lane].put(fn)
	q.Wake() // if one is already pending the consumer re-scans anyway
}

// next pops the highest-priority pending item.
func (q *ExecQueue) next() (func(), bool) {
	for i := range q.lanes {
		if fn, ok := q.lanes[i].pop(); ok {
			return fn, true
		}
	}
	return nil, false
}

// Run drains the queue until Close, running items one at a time (the
// daemon's serial executor). Items still queued at Close are run before
// returning only if already visible; late stragglers are discarded.
func (q *ExecQueue) Run() {
	for {
		if fn, ok := q.next(); ok {
			fn()
			continue
		}
		if q.idle != nil {
			q.idle()
		}
		if q.closed.Load() {
			return
		}
		select {
		case <-q.ready:
		case <-q.done:
		}
	}
}

// Close stops the queue: subsequent Puts are dropped and Run returns after
// draining what it can see.
func (q *ExecQueue) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.done)
	}
}

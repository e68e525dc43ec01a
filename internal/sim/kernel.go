// Package sim is a deterministic discrete-event simulation kernel.
//
// It provides two complementary programming models on one virtual clock:
//
//   - an event API (At/After) for event-driven components such as the
//     MESSENGERS daemons and the Ethernet model, and
//   - a process API (Spawn + Proc.Advance/Park) in the style of process-based
//     simulators, so sequentially written task code — notably the PVM
//     baseline programs with their blocking receive calls — can run under
//     simulated time without being rewritten as state machines.
//
// The kernel is single-threaded from the simulation's point of view: exactly
// one event callback or one process is running at any moment, and events fire
// in (time, insertion-sequence) order, so every run is deterministic.
//
// The pending events are one binary min-heap of pointer-free entries; each
// callback waits in a per-kernel slot slab, so scheduling an event
// allocates nothing once the slab is warm and a sift never meets the
// garbage collector's write barrier.
//
// A process is a coroutine (iter.Pull), not a free-running goroutine: an
// event resumes it, it runs until Advance or Park yields back, and the
// switch each way is a direct jump rather than a hand-off through the Go
// scheduler.
package sim

import (
	"fmt"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations, mirroring the time package for simulated time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time in seconds for logs and tables.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// entry is one pending event in the kernel's heap. It holds no pointer: the
// callback waits in the kernel's slot slab, so a sift moves three scalars
// with no GC write barrier, and ordering two entries reads nothing else.
type entry struct {
	at   Time
	seq  uint64
	slot int32 // index into Kernel.fns
}

// before is the kernel's total event order, (at, seq).
func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Kernel is a discrete-event scheduler. Construct one with New.
type Kernel struct {
	now     Time
	seq     uint64
	heap    []entry  // pending events, a binary min-heap under entry.before
	fns     []func() // callbacks by slot; nil when the slot is free
	free    []int32  // free slots of fns
	failure any      // panic value captured from a process

	allProcs []*Proc
}

// New returns an empty kernel at time zero.
func New() *Kernel { return &Kernel{} }

// NewWithQueue returns New(). The kernel has one event queue; the names
// "heap", "calendar" and "adaptive" are all that queue, and any other name
// panics. It stays only because cmd/mbench's timer probe still asks for
// each of the three structures the kernel once offered.
func NewWithQueue(kind string) *Kernel {
	switch kind {
	case "heap", "calendar", "adaptive":
		return New()
	default:
		panic(fmt.Sprintf("sim: unknown event queue %q", kind))
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn at absolute time t. Scheduling in the past is an error in
// the simulation logic and panics.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.fns[slot] = fn
	} else {
		slot = int32(len(k.fns))
		k.fns = append(k.fns, fn)
	}
	k.heap = append(k.heap, entry{at: t, seq: k.seq, slot: slot})
	k.seq++
	k.up(len(k.heap) - 1)
}

// After schedules fn d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+d, fn)
}

// Step fires the single next event. It reports false when no events remain.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	e := k.heap[0]
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	if n > 0 {
		k.down()
	}
	k.now = e.at
	fn := k.fns[e.slot]
	k.fns[e.slot] = nil
	k.free = append(k.free, e.slot)
	fn()
	if k.failure != nil {
		f := k.failure
		k.failure = nil
		panic(f)
	}
	return true
}

// up sifts the entry at i toward the root.
func (k *Kernel) up(i int) {
	h := k.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down sifts the root toward the leaves.
func (k *Kernel) down() {
	h := k.heap
	n := len(h)
	e := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Run fires events until none remain. It returns the final simulated time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

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
// in (time, insertion-sequence) order, so every run is deterministic. A
// process is a coroutine (iter.Pull), not a free-running goroutine: an event
// resumes it, it runs until Advance or Park yields back, and the switch each
// way is a direct jump rather than a hand-off through the Go scheduler.
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

// event is a scheduled callback.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	k *Kernel
	e *event
}

// Cancel removes the event from the schedule; it is a no-op if the event
// already fired or was cancelled. The event stays in the queue as a
// tombstone (Step skips it), which keeps cancellation O(1) for every
// queue implementation.
func (h Handle) Cancel() {
	if h.e == nil || h.e.fn == nil {
		return
	}
	h.e.cancel = true
	h.e.fn = nil
	h.k.live--
}

// Kernel is a discrete-event scheduler. The zero value is not usable; use
// New.
type Kernel struct {
	now     Time
	seq     uint64
	pq      eventQueue
	live    int // scheduled, uncancelled events
	parked  int // processes blocked in Park with no pending wake
	stopped bool
	failure any // panic value captured from a process

	allProcs []*Proc
}

// New returns an empty kernel at time zero. The pending-event set is the
// adaptive queue: a binary heap while the horizon is sparse, migrating to
// a calendar queue past ~1k pending events (see queue.go). Both obey the
// same (time, sequence) total order, so the choice never changes a run's
// behavior, only its wall-clock cost.
func New() *Kernel {
	return &Kernel{pq: newAdaptiveQueue()}
}

// NewWithQueue returns a kernel pinned to a specific event-queue
// implementation: "heap", "calendar", or "adaptive". It exists for the
// kernel microbenchmarks that compare queue structures head to head;
// simulations should use New.
func NewWithQueue(kind string) *Kernel {
	switch kind {
	case "heap":
		return &Kernel{pq: newHeapQueue()}
	case "calendar":
		return &Kernel{pq: newCalendarQueue(0)}
	case "adaptive":
		return &Kernel{pq: newAdaptiveQueue()}
	default:
		panic(fmt.Sprintf("sim: unknown event queue %q", kind))
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn at absolute time t. Scheduling in the past is an error in
// the simulation logic and panics.
func (k *Kernel) At(t Time, fn func()) Handle {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	e := &event{at: t, seq: k.seq, fn: fn}
	k.seq++
	k.pq.Push(e)
	k.live++
	return Handle{k: k, e: e}
}

// After schedules fn d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Pending reports the number of scheduled (uncancelled) events.
func (k *Kernel) Pending() int { return k.live }

// Parked reports how many processes are blocked with no pending wake-up.
// A nonzero value when Run returns indicates a deadlock in the simulated
// system (e.g. a PVM receive with no matching send).
func (k *Kernel) Parked() int { return k.parked }

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step fires the single next event. It reports false when no events remain.
func (k *Kernel) Step() bool {
	for {
		e := k.pq.Pop()
		if e == nil {
			return false
		}
		if e.cancel {
			continue
		}
		k.live--
		k.now = e.at
		fn := e.fn
		e.fn = nil
		fn()
		if k.failure != nil {
			f := k.failure
			k.failure = nil
			panic(f)
		}
		return true
	}
}

// Run fires events until none remain or Stop is called. It returns the
// final simulated time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
	return k.now
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
func (k *Kernel) RunUntil(t Time) Time {
	k.stopped = false
	for !k.stopped {
		e := k.pq.Peek()
		if e == nil || e.at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

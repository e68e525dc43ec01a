package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: ordinary Go code that advances simulated time
// with Advance and blocks with Park/Mailbox operations. Each Proc is a
// coroutine (see the package doc), so exactly one process or event runs at
// a time and the simulation stays deterministic.
type Proc struct {
	k      *Kernel
	name   string
	resume func()              // runs the process until it yields or exits
	yield  func(struct{}) bool // suspends the process, back into resume
	parked bool
	dead   bool
	killed bool
}

// procKilled is the panic payload used to unwind a killed process.
type procKilled struct{}

// IsKill reports whether r, a value recovered inside a process, is the
// unwinding Shutdown ends the process with. Code that recovers panics in a
// process body should let it pass silently: it is not a fault.
func IsKill(r any) bool {
	_, ok := r.(procKilled)
	return ok
}

// ProcPanic is what Kernel.Step re-panics with when a simulated process
// panics: the process name, the original panic value, and the goroutine
// stack captured at the panic site — so the trace names the faulty process
// function rather than the kernel's event loop.
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

// Error makes ProcPanic usable as an error when recovered by callers.
func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn starts fn as a simulated process at the current time. fn begins
// executing when the kernel reaches the start event; it must only touch the
// simulation through p.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	k.allProcs = append(k.allProcs, p)
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && !IsKill(r) {
				k.failure = &ProcPanic{Proc: name, Value: r, Stack: debug.Stack()}
			}
			p.dead = true
		}()
		if p.killed {
			panic(procKilled{})
		}
		fn(p)
	})
	p.resume = func() { next() }
	k.After(0, p.resume)
	return p
}

// Shutdown unwinds every live process so no goroutines leak after the
// simulation ends. Parked processes are killed where they block; processes
// with pending wake-ups are killed when resumed. Call it when a run is done
// (typically with defer after New).
func (k *Kernel) Shutdown() {
	for _, p := range k.allProcs {
		if p.dead {
			continue
		}
		p.killed = true
		if p.parked {
			p.parked = false
			k.parked--
		}
		// Every live process is suspended (not yet started, or in Advance
		// or Park); resuming it unwinds via procKilled.
		p.resume()
	}
	k.failure = nil
}

// yieldToKernel suspends the calling process until the kernel resumes it.
// Must be called from the process itself.
func (p *Proc) yieldToKernel() {
	if !p.yield(struct{}{}) || p.killed {
		panic(procKilled{})
	}
}

// Advance consumes d nanoseconds of simulated time (e.g. modeled CPU work).
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	p.k.After(d, p.resume)
	p.yieldToKernel()
}

// Park blocks the process until another component calls Unpark. It is the
// building block for condition-style waiting (mailboxes, barriers).
func (p *Proc) Park() {
	p.parked = true
	p.k.parked++
	p.yieldToKernel()
}

// Unpark schedules a parked process to resume at the current time. It may be
// called from an event callback or from another process. Unparking a process
// that is not parked panics: it indicates a lost-wakeup race in the caller.
func (p *Proc) Unpark() {
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked process %q", p.name))
	}
	p.parked = false
	p.k.parked--
	p.k.After(0, p.resume)
}

// Parked reports whether the process is currently parked.
func (p *Proc) Parked() bool { return p.parked }

// Mailbox is an unbounded deterministic FIFO queue connecting simulated
// components. Any event callback or process may Put; only processes may
// block in Get.
type Mailbox struct {
	k      *Kernel
	items  []any
	waiter *Proc
}

// NewMailbox returns an empty mailbox on kernel k.
func NewMailbox(k *Kernel) *Mailbox {
	return &Mailbox{k: k}
}

// Len returns the number of queued items.
func (m *Mailbox) Len() int { return len(m.items) }

// Put enqueues an item and wakes the waiting process, if any.
func (m *Mailbox) Put(item any) {
	m.items = append(m.items, item)
	if m.waiter != nil {
		w := m.waiter
		m.waiter = nil
		w.Unpark()
	}
}

// Get dequeues the next item, parking p until one is available. At most one
// process may wait on a mailbox at a time.
func (m *Mailbox) Get(p *Proc) any {
	for len(m.items) == 0 {
		if m.waiter != nil && m.waiter != p {
			panic("sim: multiple processes waiting on one mailbox")
		}
		m.waiter = p
		p.Park()
	}
	return m.take()
}

// TryGet dequeues the next item without blocking.
func (m *Mailbox) TryGet() (any, bool) {
	if len(m.items) == 0 {
		return nil, false
	}
	return m.take(), true
}

// take removes the head item. It clears the head's slot first: the backing
// array outlives the reslice, and the garbage collector scans all of it.
func (m *Mailbox) take() any {
	item := m.items[0]
	m.items[0] = nil
	m.items = m.items[1:]
	return item
}

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
	unpark func()              // p.Unpark, bound once so scheduling it allocates nothing
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
	p.unpark = p.Unpark
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
		p.parked = false
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

// Park blocks the process until another component calls Unpark. It is the
// building block for condition-style waiting (mailboxes, barriers).
func (p *Proc) Park() {
	p.parked = true
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
	p.k.After(0, p.resume)
}

// Unparker returns p.Unpark as a func value bound once at Spawn: an event
// that wakes the process can be scheduled without a closure per wake-up.
func (p *Proc) Unparker() func() { return p.unpark }

// Parked reports whether the process is currently parked.
func (p *Proc) Parked() bool { return p.parked }

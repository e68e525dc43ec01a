package sim

import (
	"runtime"
	"strings"
	"testing"
)

func TestProcAdvance(t *testing.T) {
	k := New()
	defer k.Shutdown()
	var marks []Time
	k.Spawn("worker", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Advance(100)
		marks = append(marks, p.Now())
		p.Advance(50)
		marks = append(marks, p.Now())
	})
	k.Run()
	want := []Time{0, 100, 150}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("marks[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := New()
		defer k.Shutdown()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				p.Advance(10)
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "b")
				p.Advance(15)
			}
		})
		k.Run()
		return log
	}
	first := run()
	for i := 0; i < 20; i++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("nondeterministic length: %v vs %v", got, first)
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", got, first)
			}
		}
	}
}

func TestMailboxBlockingReceive(t *testing.T) {
	k := New()
	defer k.Shutdown()
	mb := NewMailbox(k)
	var got []int
	var recvTimes []Time
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v := mb.Get(p).(int)
			got = append(got, v)
			recvTimes = append(recvTimes, p.Now())
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Advance(100)
			mb.Put(i)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("got = %v", got)
	}
	for i, at := range recvTimes {
		if want := Time(100 * (i + 1)); at != want {
			t.Errorf("recvTimes[%d] = %v, want %v", i, at, want)
		}
	}
	if k.Parked() != 0 {
		t.Errorf("Parked = %d at end", k.Parked())
	}
}

func TestMailboxPutFromEventCallback(t *testing.T) {
	k := New()
	defer k.Shutdown()
	mb := NewMailbox(k)
	var gotAt Time
	k.Spawn("c", func(p *Proc) {
		mb.Get(p)
		gotAt = p.Now()
	})
	k.At(77, func() { mb.Put("hello") })
	k.Run()
	if gotAt != 77 {
		t.Errorf("received at %v, want 77", gotAt)
	}
}

func TestDeadlockedProcessIsReportedParked(t *testing.T) {
	k := New()
	defer k.Shutdown()
	mb := NewMailbox(k)
	k.Spawn("stuck", func(p *Proc) {
		mb.Get(p) // nothing will ever arrive
	})
	k.Run()
	if k.Parked() != 1 {
		t.Errorf("Parked = %d, want 1 (deadlock detection)", k.Parked())
	}
}

func TestShutdownUnwindsAllProcesses(t *testing.T) {
	k := New()
	mb := NewMailbox(k)
	cleaned := 0
	k.Spawn("parked", func(p *Proc) {
		defer func() { cleaned++ }()
		mb.Get(p)
	})
	k.Spawn("sleeping", func(p *Proc) {
		defer func() { cleaned++ }()
		p.Advance(1 << 40)
	})
	k.RunUntil(100)
	k.Shutdown()
	if cleaned != 2 {
		t.Errorf("cleaned = %d, want 2", cleaned)
	}
}

// TestShutdownLeavesNoGoroutines: every way a process can be left when a run
// ends — never started, parked in a Mailbox, asleep in Advance, finished,
// panicked — costs no goroutine once Shutdown returns.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	mb := NewMailbox(k)
	k.Spawn("finished", func(p *Proc) {})
	k.Spawn("mailbox", func(p *Proc) { mb.Get(p) })
	k.Spawn("advance", func(p *Proc) { p.Advance(1 << 40) })
	k.Spawn("panicked", func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	func() {
		defer func() {
			if _, ok := recover().(*ProcPanic); !ok {
				t.Error("the panicking process did not surface as a ProcPanic")
			}
		}()
		k.RunUntil(100)
	}()
	k.RunUntil(100)
	k.Spawn("never-started", func(p *Proc) { t.Error("a process started after Shutdown") })
	k.Shutdown()
	// An exiting goroutine may still be on its way out when Shutdown returns.
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before the run", n, base)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := New()
	defer k.Shutdown()
	k.Spawn("bad", func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Error("process panic should propagate out of Run")
		}
	}()
	k.Run()
}

func TestUnparkNonParkedPanics(t *testing.T) {
	k := New()
	defer k.Shutdown()
	var target *Proc
	target = k.Spawn("idle", func(p *Proc) { p.Advance(1000) })
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("Unpark of running process should panic")
			}
		}()
		target.Unpark()
	})
	k.Run()
}

func TestProcNameAndKernel(t *testing.T) {
	k := New()
	defer k.Shutdown()
	k.Spawn("n1", func(p *Proc) {
		if p.name != "n1" {
			t.Errorf("name = %q", p.name)
		}
		if p.k != k {
			t.Error("kernel mismatch")
		}
	})
	k.Run()
}

func TestNegativeAdvancePanics(t *testing.T) {
	k := New()
	defer k.Shutdown()
	k.Spawn("neg", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative Advance should panic")
			}
		}()
		p.Advance(-1)
	})
	func() {
		defer func() { recover() }() // the re-panic from the proc wrapper
		k.Run()
	}()
}

// TestProcPanicCarriesStack: a panicking process surfaces through
// Kernel.Step as a ProcPanic whose captured stack names the faulty process
// function — not just the kernel's event loop.
func TestProcPanicCarriesStack(t *testing.T) {
	k := New()
	k.Spawn("boomer", faultyProcFunction)
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
		}
		if pp.Proc != "boomer" {
			t.Errorf("Proc = %q", pp.Proc)
		}
		if pp.Value != "kaboom" {
			t.Errorf("Value = %v", pp.Value)
		}
		if !strings.Contains(string(pp.Stack), "faultyProcFunction") {
			t.Errorf("stack does not name the faulty proc function:\n%s", pp.Stack)
		}
		if msg := pp.Error(); !strings.Contains(msg, "boomer") || !strings.Contains(msg, "kaboom") {
			t.Errorf("Error() = %q", msg)
		}
	}()
	k.Run()
	t.Fatal("Run returned despite a process panic")
}

func faultyProcFunction(p *Proc) {
	p.Advance(5)
	panic("kaboom")
}

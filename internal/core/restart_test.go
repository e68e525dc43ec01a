package core

import (
	"reflect"
	"testing"
	"time"

	"messengers/internal/sim"
)

// restartWorkload is the mixed recovery-mode run the fresh-daemon test
// crashes into: a walker on daemon 2 whose create(ALL) makes nodes on
// daemons 0 and 1 and whose remote hops stay retained (virtual time cannot
// pass them while a sleeper waits), and a sched_dlt sleeper on daemon 1
// with its renotify armed, which keeps daemon 0's GVT rounds going.
func restartWorkload(t *testing.T) (*sim.Kernel, *System) {
	t.Helper()
	k, sys := simSystem(t, 3, WithRecovery(RecoveryConfig{}))
	register(t, sys, "walker", `
		create(ALL);
		for (i = 0; i < 40; i++) { hop(ll = $last); }
	`)
	register(t, sys, "sleeper", `sched_dlt(1000.0);`)
	if err := sys.Inject(1, "sleeper", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(2, "walker", nil); err != nil {
		t.Fatal(err)
	}
	return k, sys
}

// TestRestartIsAFreshDaemon: after a Crash and a Restart, daemon 0 (the GVT
// initiator) and, in a run of its own, daemon 1 hold exactly what a newly
// built daemon holds, field for field of the volatile part, however much
// the run had put there: Messengers, a suspended sleeper and its armed
// renotify, logical nodes, retained transfers, dedup records and an open
// GVT round.
func TestRestartIsAFreshDaemon(t *testing.T) {
	for _, victim := range []int{0, 1} {
		k, sys := restartWorkload(t)
		d0, d1, d := sys.Daemon(0), sys.Daemon(1), sys.Daemon(victim)
		busy := func() bool {
			return len(d1.waitQ) > 0 && d1.renotifyOn && d0.round.open &&
				len(d.active) > 0 && len(d.rec.pending) > 0 && nodeCount(d.store) > 1
		}
		for !busy() && k.Step() {
		}
		if !busy() {
			t.Fatalf("daemon %d: the run never held every kind of state at once", victim)
		}
		fresh := newDaemon(victim, d.eng, d.topo, sys)
		if reflect.DeepEqual(d.volatile, fresh.volatile) {
			t.Fatalf("daemon %d: the busy daemon already looks fresh", victim)
		}
		sys.Crash(victim)
		sys.Restart(victim)
		checked := false
		sys.Do(victim, func(d *Daemon) {
			checked = true
			if d.down() {
				t.Errorf("daemon %d: still down after the restart", victim)
			}
			if !reflect.DeepEqual(d.volatile, fresh.volatile) {
				t.Errorf("daemon %d: restarted state differs from a new daemon's:\n got %+v\nwant %+v",
					victim, d.volatile, fresh.volatile)
			}
		})
		for !checked && k.Step() {
		}
		if !checked {
			t.Fatalf("daemon %d: the check never ran", victim)
		}
	}
}

// TestInjectIntoCrashedDaemonGivesBackItsSlot: System.Inject takes a
// liveness slot for its MsgInject, and a crashed daemon drops the message;
// the drop gives the slot back, so the run still quiesces (sim) and Wait
// returns (chan).
func TestInjectIntoCrashedDaemonGivesBackItsSlot(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		k, sys := simSystem(t, 2, WithRecovery(RecoveryConfig{}))
		register(t, sys, "noop", `x = 1;`)
		sys.Crash(1)
		if err := sys.Inject(1, "noop", nil); err != nil {
			t.Fatal(err)
		}
		k.Run()
		if live := sys.Live(); live != 0 {
			t.Errorf("live work = %d after the kernel drained", live)
		}
	})
	t.Run("chan", func(t *testing.T) {
		sys := chanSystem(t, 2, WithRecovery(RecoveryConfig{}))
		register(t, sys, "noop", `x = 1;`)
		sys.Crash(1)
		if err := sys.Inject(1, "noop", nil); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			sys.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Wait did not return (live=%d)", sys.Live())
		}
	})
}

// TestRestartArmsRenotifyAgain: a daemon that crashes with its renotify
// timer armed loses the timer with everything else, so once restarted a new
// sched_dlt sleeper arms one again, and it fires: at the end of the run no
// renotify is left marked armed.
func TestRestartArmsRenotifyAgain(t *testing.T) {
	k, sys := simSystem(t, 2, WithRecovery(RecoveryConfig{}))
	register(t, sys, "sleeper", `sched_dlt(1.0);`)
	if err := sys.Inject(1, "sleeper", nil); err != nil {
		t.Fatal(err)
	}
	d1 := sys.Daemon(1)
	for !d1.renotifyOn && k.Step() {
	}
	if !d1.renotifyOn {
		t.Fatal("the sleeper never armed a renotify")
	}
	sys.Crash(1)
	sys.Restart(1)
	if err := sys.Inject(1, "sleeper", nil); err != nil {
		t.Fatal(err)
	}
	armed := false
	for k.Step() {
		armed = armed || len(d1.waitQ) > 0 && d1.renotifyOn
	}
	if !armed {
		t.Error("the restarted daemon's sleeper armed no renotify")
	}
	if d1.renotifyOn {
		t.Error("a renotify is marked armed after the run drained: none was pending")
	}
	if live := sys.Live(); live != 0 {
		t.Errorf("live work = %d after the kernel drained", live)
	}
	if n := d1.Stats.Finished; n != 1 {
		t.Errorf("daemon 1 finished %d sleepers, want the restarted one", n)
	}
}

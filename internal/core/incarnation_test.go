package core

import (
	"testing"

	"messengers/internal/sim"
	"messengers/internal/vm"
)

// TestCrashOrphansScheduledWork: work a daemon scheduled for itself before
// a crash — a step, a deferred navigate, a GVT restart and watchdog, a
// renotify and a retransmit — does not run after the restart, even though
// the restarted daemon holds what each would act on. The timers fire after
// the restart, when the daemon is up: the incarnation each was stamped
// with is what HandleMsg drops them by. (The step, on the CPU ahead of the
// crash, runs while the daemon is down and is dropped for that.)
func TestCrashOrphansScheduledWork(t *testing.T) {
	k, sys := simSystem(t, 2, WithRecovery(RecoveryConfig{}))
	d0, d1 := sys.Daemon(0), sys.Daemon(1)
	g := d0.initiator
	const later = 10 * sim.Millisecond
	// Neither Messenger's node exists: a step or a navigate that ran would
	// end it as dead.
	step := &Messenger{ID: 1<<62 + 1, Node: 99}
	nav := &Messenger{ID: 1<<62 + 2, Node: 99, paused: true, next: vm.Result{Pause: vm.PauseHop}}
	d1.next(step, later)
	d1.timer(later, Msg{Kind: MsgStep, MsgrID: nav.ID})
	d1.timer(later, Msg{Kind: MsgRenotify})
	d1.timer(later, Msg{Kind: MsgRetransmit, HopSeq: 1})
	d0.timer(later, Msg{Kind: MsgGVTRestart})
	d0.timer(later, Msg{Kind: MsgGVTWatchdog, GEpoch: g.epoch})
	for d := 0; d < 2; d++ {
		sys.Crash(d)
		sys.Restart(d)
	}
	retx := &retxEntry{seq: 1, dst: 0, msg: &Msg{Kind: MsgCreateAck, From: 1, HopSeq: 1}, attempts: 1, timeout: later}
	sys.Do(1, func(d *Daemon) {
		sys.sessionWork("", 0, 2)
		d.active[step.ID], d.active[nav.ID] = step, nav
		d.renotifyOn = true // a renotify that ran would clear it
		d.rec.pending[retx.seq] = retx
	})
	sys.Do(0, func(*Daemon) { g.polling, g.open = true, true })
	for k.Step() && k.Now() < sim.Second { // orphans that ran may keep it busy
	}
	if d1.epoch != 1 || d0.epoch != 1 {
		t.Fatalf("incarnations %d and %d, want 1 after one crash each", d0.epoch, d1.epoch)
	}
	if n := d1.Stats.Died; n != 0 {
		t.Errorf("%d orphaned steps or navigates ran", n)
	}
	if !d1.renotifyOn {
		t.Error("an orphaned renotify ran")
	}
	if retx.attempts != 1 {
		t.Errorf("an orphaned retransmit ran: %d attempts", retx.attempts)
	}
	if n := d0.Stats.GVTRounds; n != 0 {
		t.Errorf("an orphaned GVT restart or watchdog started %d rounds", n)
	}
}

package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"messengers/internal/faults"
	"messengers/internal/lan"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// faultSystem builds a simulated full-mesh system with recovery enabled and
// the plan's faults injected (hook plus scheduled crashes with
// deterministic failure notices).
func faultSystem(t *testing.T, n int, plan *faults.Plan, opts ...Option) (*sim.Kernel, *System, *obs.Metrics) {
	t.Helper()
	if err := plan.Validate(n); err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	cluster := lan.NewCluster(k, lan.DefaultCostModel(), n, lan.SPARC110)
	metrics := obs.NewMetrics()
	cluster.Observe(nil, metrics)
	opts = append(opts, WithRecovery(RecoveryConfig{}), WithMetrics(metrics))
	sys := NewSystem(NewSimEngine(cluster), FullMesh(n), distGVTEnv(opts)...)
	inj := faults.NewInjector(plan, metrics, nil)
	cluster.SetFaultHook(inj.Decide)
	faults.Schedule(plan, sys, func(at int64, fn func()) { k.At(sim.Time(at), fn) }, true)
	return k, sys, metrics
}

// TestRecoveryRetransmitUnderLoss drops 30% of all traffic; hop-level
// acknowledgement and retransmission must still move the Messenger across
// the wire and let the system quiesce.
func TestRecoveryRetransmitUnderLoss(t *testing.T) {
	plan := &faults.Plan{Seed: 3, Drop: 0.3}
	k, sys, metrics := faultSystem(t, 2, plan)
	// create moves the Messenger to the new node on daemon 1; each hop
	// re-crosses the inter-daemon link.
	register(t, sys, "crosser", `
		create(ALL);
		hop(ll = $last);
		node.mark = 1;
		hop(ll = $last);
		hop(ll = $last);
		node.mark = node.mark + 1;
	`)
	if err := sys.Inject(0, "crosser", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if got := sys.Daemon(0).Store().Init().Vars["mark"].AsInt(); got != 2 {
		t.Errorf("init mark = %d, want 2", got)
	}
	if metrics.CounterValue("faults.injected.drop") == 0 {
		t.Error("plan injected no drops; test is vacuous")
	}
	if metrics.CounterValue("msgr.retx") == 0 {
		t.Error("no retransmissions despite drops")
	}
}

// TestRecoveryDuplicateSuppression duplicates half of all messages; dedup
// by (messenger, hop) must keep each hop's effect exactly-once.
func TestRecoveryDuplicateSuppression(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Dup: 0.5}
	k, sys, metrics := faultSystem(t, 2, plan)
	register(t, sys, "once", `
		create(ALL);
		hop(ll = $last);
		node.count = node.count + 1;
		hop(ll = $last);
		node.mark = 1;
	`)
	if err := sys.Inject(0, "once", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if got := sys.Daemon(0).Store().Init().Vars["count"].AsInt(); got != 1 {
		t.Errorf("init count = %d, want exactly 1", got)
	}
	if metrics.CounterValue("faults.injected.dup") == 0 {
		t.Error("plan injected no duplicates; test is vacuous")
	}
	if metrics.CounterValue("msgr.dedup") == 0 {
		t.Error("no duplicate was suppressed")
	}
}

// ackProbe is a simulated engine that reads System.Live at the moment a
// daemon acknowledges a Messenger transfer. The sender's retransmission
// entry holds one liveness slot until that ack arrives, and the receiver
// must already hold the arrival's, so Live is at least 2 there: a receiver
// that acknowledged first would let a real engine's sender release its slot
// while the receiver's is not yet taken, and System.Wait return before the
// Messenger runs.
type ackProbe struct {
	*SimEngine
	sys   *System
	xfers map[[3]uint64]bool // (src, dst, HopSeq) of each Messenger transfer sent
	acks  int
	low   []string
}

func (e *ackProbe) Send(src, dst int, msg *Msg) {
	switch key := [3]uint64{uint64(src), uint64(dst), msg.HopSeq}; {
	case msg.CarriesMessenger():
		e.xfers[key] = true
	case msg.Kind == MsgHopAck && e.xfers[[3]uint64{uint64(dst), uint64(src), msg.HopSeq}]:
		e.acks++
		if live := e.sys.Live(); live < 2 {
			e.low = append(e.low, fmt.Sprintf("d%d acked d%d's hop %d with Live() = %d", src, dst, msg.HopSeq, live))
		}
	}
	e.SimEngine.Send(src, dst, msg)
}

// TestHopAckFollowsLivenessSlot: a receiver takes an arrival's liveness
// slot before it sends the hop ack, on every transfer of a walk that
// creates, hops and replicates across three daemons.
func TestHopAckFollowsLivenessSlot(t *testing.T) {
	k := sim.New()
	eng := &ackProbe{SimEngine: NewSimEngine(lan.NewCluster(k, lan.DefaultCostModel(), 3, lan.SPARC110)), xfers: map[[3]uint64]bool{}}
	sys := NewSystem(eng, FullMesh(3), distGVTEnv([]Option{WithRecovery(RecoveryConfig{})})...)
	eng.sys = sys
	register(t, sys, "walker", `
		create(ALL);
		hop(ll = $last);
		hop(ll = $last);
		node.visits = node.visits + 1;
	`)
	if err := sys.Inject(0, "walker", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if eng.acks == 0 {
		t.Fatal("no Messenger transfer was acknowledged; test is vacuous")
	}
	for _, l := range eng.low {
		t.Error(l)
	}
}

// gvtShapes are the GVT initiator's two wave shapes. Every test below that
// crashes a daemon or loses control traffic runs under both: the stale-wave
// drop, the watchdog, the dead-peer handling and the crash reset they
// exercise exist once. (Under MSGR_DIST_GVT=1 the star row is a second ring
// run.)
var gvtShapes = []struct {
	name string
	opts []Option
}{
	{"star", nil},
	{"ring", []Option{WithDistributedGVT()}},
}

// spinSurvivor loads the crash tests' workload: create moves the Messenger
// onto a new node on every other daemon (one of which will crash) and spin
// keeps it resident there well past the crash time.
func spinSurvivor(t *testing.T, sys *System) {
	t.Helper()
	sys.RegisterNative("spin", func(ctx *NativeCtx, _ []value.Value) (value.Value, error) {
		ctx.Charge(200 * sim.Millisecond)
		return value.Nil(), nil
	})
	register(t, sys, "survivor", `
		create(ALL);
		spin();
		hop(ll = $last);
		node.done = node.done + 1;
	`)
	if err := sys.Inject(0, "survivor", nil); err != nil {
		t.Fatal(err)
	}
}

// wakers starts one Messenger per entry of whens, on daemons first, first+1,
// …; each suspends until its when and then rungs-1 more times, one unit of
// virtual time apart. It runs the system dry and requires every wake-up, in
// virtual-time order.
func wakers(t *testing.T, k *sim.Kernel, sys *System, first, rungs int, whens ...float64) {
	t.Helper()
	register(t, sys, "waker", `
		for (k = 0; k < rungs; k++) {
			sched_abs(when + k);
			print("wake", when + k);
		}
	`)
	var times []float64
	for i, when := range whens {
		err := sys.Inject(first+i, "waker", map[string]value.Value{
			"when": value.Num(when), "rungs": value.Int(int64(rungs))})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < rungs; j++ {
			times = append(times, when+float64(j))
		}
	}
	runSim(t, k, sys)
	sort.Float64s(times)
	var want []string
	for _, at := range times {
		want = append(want, fmt.Sprintf("wake %.1f", at))
	}
	if got := sys.Output(); !reflect.DeepEqual(got, want) {
		t.Errorf("output = %v, want %v", got, want)
	}
}

// TestRecoveryCrashRespawn crashes the daemon a Messenger is resident on
// mid-computation. The sender retains the delivered hop until GVT passes
// it, so the survivor respawns the Messenger from its last transmitted
// snapshot onto the healed logical network and the computation completes;
// under the ring the respawn path and the token's watchdog must coexist.
func TestRecoveryCrashRespawn(t *testing.T) {
	for _, shape := range gvtShapes {
		t.Run(shape.name, func(t *testing.T) {
			plan := &faults.Plan{
				Seed: 1,
				Crashes: []faults.Crash{{
					Daemon:       1,
					At:           int64(50 * sim.Millisecond),
					RestartAfter: int64(20 * sim.Millisecond),
				}},
			}
			k, sys, metrics := faultSystem(t, 2, plan, shape.opts...)
			spinSurvivor(t, sys)
			runSim(t, k, sys)
			if got := sys.Daemon(0).Store().Init().Vars["done"].AsInt(); got != 1 {
				t.Errorf("done = %d, want 1", got)
			}
			if metrics.CounterValue("daemon.deaths") != 1 {
				t.Errorf("deaths = %d, want 1", metrics.CounterValue("daemon.deaths"))
			}
			if metrics.CounterValue("msgr.respawns") == 0 {
				t.Error("crash killed a resident Messenger but nothing was respawned")
			}
			if metrics.CounterValue("logical.adoptions") == 0 {
				t.Error("daemon 0 still linked to the dead daemon's node; no adoption happened")
			}
		})
	}
}

// TestRecoveryCrashWithoutRestart verifies a permanently dead daemon does
// not wedge the survivors: orphaned work is adopted and finishes locally,
// and the rounds heal around the gap (the star stops expecting its report,
// the token's route skips it).
func TestRecoveryCrashWithoutRestart(t *testing.T) {
	for _, shape := range gvtShapes {
		t.Run(shape.name, func(t *testing.T) {
			plan := &faults.Plan{
				Seed:    2,
				Crashes: []faults.Crash{{Daemon: 1, At: int64(50 * sim.Millisecond)}},
			}
			k, sys, _ := faultSystem(t, 3, plan, shape.opts...)
			spinSurvivor(t, sys)
			runSim(t, k, sys)
			// create(ALL) on a 3-mesh makes two replicas; both must finish even
			// though one was resident on the dead daemon.
			if got := sys.Daemon(0).Store().Init().Vars["done"].AsInt(); got != 2 {
				t.Errorf("done = %d, want 2", got)
			}
		})
	}
}

// TestRecoveryGVTUnderLoss runs virtual-time coordination (sched_abs) with
// heavy loss: queries, reports, advances, tokens and wake-ups are all
// droppable, and the re-notify/watchdog machinery must still advance GVT to
// completion in virtual-time order.
func TestRecoveryGVTUnderLoss(t *testing.T) {
	for _, shape := range gvtShapes {
		t.Run(shape.name, func(t *testing.T) {
			k, sys, _ := faultSystem(t, 3, &faults.Plan{Seed: 9, Drop: 0.25}, shape.opts...)
			wakers(t, k, sys, 0, 1, 3.0, 1.0, 2.0)
		})
	}
}

// initiatorCrash is daemon 0 — the round pacer — down from 30 to 50 ms.
var initiatorCrash = []faults.Crash{{
	Daemon:       0,
	At:           int64(30 * sim.Millisecond),
	RestartAfter: int64(20 * sim.Millisecond),
}}

// TestRecoveryGVTInitiatorCrash crashes the initiator with a restart.
// Suspended daemons renotify the restarted daemon 0, so virtual time
// resumes advancing, and every timer the dead incarnation armed dies with
// it: the renotify round is the only one launched until its own watchdog
// relaunches it (the peers still fence daemon 0, so its first wave is lost)
// at the 2× interval floor. A pacing timer that outlived the crash would
// launch a second round at once, abandoning the first and doubling the
// backoff before the next.
func TestRecoveryGVTInitiatorCrash(t *testing.T) {
	for _, shape := range gvtShapes {
		t.Run(shape.name, func(t *testing.T) {
			tr := obs.NewTracer()
			plan := &faults.Plan{Seed: 4, Crashes: initiatorCrash}
			k, sys, _ := faultSystem(t, 3, plan, append(shape.opts, WithTracer(tr))...)
			tr.SetClock(func() int64 { return int64(k.Now()) })
			// Inject on the survivors only: daemon 0's residents die with it.
			// Four rungs each, about a round apiece, keep both suspended
			// across the crash.
			wakers(t, k, sys, 1, 4, 1.0, 1.5)

			restart := initiatorCrash[0].At + initiatorCrash[0].RestartAfter
			var rounds []sim.Time // launches by the restarted initiator
			for _, ev := range tr.Events() {
				if ev.Name == "gvt.round" && ev.TS >= restart {
					rounds = append(rounds, sim.Time(ev.TS))
				}
			}
			if len(rounds) < 2 {
				t.Fatalf("restarted initiator launched %d rounds, want at least 2", len(rounds))
			}
			if gap := rounds[1] - rounds[0]; gap <= defaultGVTInterval || gap > 2*defaultGVTInterval {
				t.Errorf("rounds at %v and %v after the restart: the second must come from the first's watchdog, within (%v, %v] of it",
					rounds[0], rounds[1], defaultGVTInterval, 2*defaultGVTInterval)
			}
		})
	}
}

// TestRecoveryGVTInitiatorCrashDuringPartition combines two faults: daemon 0
// crashes and restarts while a partition simultaneously isolates daemon 2, so
// the rounds lose their initiator AND their waves in the same window. The
// watchdog must keep relaunching rounds, the restarted initiator must be
// renotified by the suspended survivors, and once the partition heals
// virtual time must resume advancing in order.
func TestRecoveryGVTInitiatorCrashDuringPartition(t *testing.T) {
	for _, shape := range gvtShapes {
		t.Run(shape.name, func(t *testing.T) {
			plan := &faults.Plan{
				Seed:    4,
				Crashes: initiatorCrash,
				// Overlaps the crash window on both sides: the partition starts
				// before the initiator dies and heals after it has restarted.
				Partitions: []faults.Partition{{
					At:    int64(25 * sim.Millisecond),
					Heal:  int64(70 * sim.Millisecond),
					Group: []int{2},
				}},
			}
			k, sys, metrics := faultSystem(t, 3, plan, shape.opts...)
			wakers(t, k, sys, 1, 4, 1.0, 1.5)
			// The combination must actually have exercised both faults: the
			// partition cut GVT traffic and the daemon died.
			if metrics.CounterValue("faults.injected.partition") == 0 {
				t.Error("partition never dropped a message — the fault windows missed the GVT traffic")
			}
			if metrics.CounterValue("daemon.deaths") != 1 {
				t.Errorf("deaths = %d, want 1", metrics.CounterValue("daemon.deaths"))
			}
			log := sys.CommitLog()
			for i := 1; i < len(log); i++ {
				if log[i] <= log[i-1] {
					t.Fatalf("commit log not strictly increasing after combined faults: %v", log)
				}
			}
		})
	}
}

// TestRecoveryDisabledUnchanged guards the zero-cost property: without
// WithRecovery the wire carries no acks and no recovery state exists, so a
// fault-free run behaves exactly as before the recovery layer existed.
func TestRecoveryDisabledUnchanged(t *testing.T) {
	k, sys := simSystem(t, 2, WithMetrics(obs.NewMetrics()))
	register(t, sys, "plain", `
		create(ALL);
		hop(ll = $last);
		node.mark = 1;
	`)
	if err := sys.Inject(0, "plain", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if sys.Daemon(0).rec != nil {
		t.Error("recovery state allocated without WithRecovery")
	}
	if got := sys.Metrics().CounterValue("msgr.retx"); got != 0 {
		t.Errorf("retx = %d without recovery", got)
	}
}

// TestPeerDownFencesLateTraffic reproduces the book-skew hang found by the
// protocol chaos sweep (paxos/leadercrash): a MsgMessenger still in flight
// when its sender is declared dead arrives after the observer's PeerDown
// already purged both sides' transient books for that peer. Counting it
// would leave global recv > sent forever — the GVT coordinator's rounds can
// then never conclude and the run never quiesces. The daemon must fence
// (drop uncounted, unacked) all traffic from a peer it currently considers
// dead; the sender's recovery layer retransmits after PeerUp if the
// suspicion was false.
func TestPeerDownFencesLateTraffic(t *testing.T) {
	_, sys, _ := faultSystem(t, 2, &faults.Plan{Seed: 1})
	d := sys.Daemon(1)
	d.HandleMsg(&Msg{Kind: MsgPeerDown, From: 0})

	late := &Msg{Kind: MsgMessenger, From: 0, MsgrID: 99, HopSeq: 7}
	d.HandleMsg(late)

	if d.recv != 0 || d.rec.recvFrom[0] != 0 {
		t.Errorf("fenced message was counted: recv=%d recvFrom[0]=%d", d.recv, d.rec.recvFrom[0])
	}
	if d.Stats.Arrived != 0 {
		t.Errorf("fenced message was processed: arrived=%d", d.Stats.Arrived)
	}

	// After PeerUp the same traffic flows (and counts) again. The crafted
	// Msg carries no program, so arrival fails after counting — the GVT
	// books, not the arrival, are what this test pins down.
	d.HandleMsg(&Msg{Kind: MsgPeerUp, From: 0}) // a local notice: the fence does not drop it
	msg := &Msg{Kind: MsgMessenger, From: 0, MsgrID: 100, HopSeq: 8}
	d.HandleMsg(msg)
	if d.recv != 1 {
		t.Errorf("post-PeerUp message not counted: recv=%d", d.recv)
	}
}

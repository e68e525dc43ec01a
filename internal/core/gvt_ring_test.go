package core

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"messengers/internal/faults"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// The distributed ring-reduction GVT must be observationally identical to
// the centralized coordinator on the sim engine: same virtual-time
// ordering, same committed GVT sequence, fewer control messages. These
// tests mirror the coordinator suite under WithDistributedGVT and add the
// differential assertions.

// ringWorkloads are the virtual-time coordination patterns the differential
// tests replay under both GVT implementations.
var ringWorkloads = []struct {
	name    string
	daemons int
	load    func(t *testing.T, sys *System)
}{
	{"wakers", 3, func(t *testing.T, sys *System) {
		register(t, sys, "waker", `
			sched_abs(when);
			print("wake", when, "on", $address);
		`)
		wakes := []struct {
			daemon int
			when   float64
		}{
			{2, 3.0}, {0, 1.0}, {1, 2.0}, {1, 0.5}, {0, 2.5},
		}
		for _, w := range wakes {
			err := sys.Inject(w.daemon, "waker", map[string]value.Value{"when": value.Num(w.when)})
			if err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"alternation", 2, func(t *testing.T, sys *System) {
		register(t, sys, "full", `
			for (k = 0; k < 3; k++) {
				sched_abs(k);
				print("A", k);
			}
		`)
		register(t, sys, "half", `
			for (k = 0; k < 3; k++) {
				sched_abs(k + 0.5);
				print("B", k);
			}
		`)
		if err := sys.Inject(0, "full", nil); err != nil {
			t.Fatal(err)
		}
		if err := sys.Inject(1, "half", nil); err != nil {
			t.Fatal(err)
		}
	}},
	{"sched_dlt stress", 4, func(t *testing.T, sys *System) {
		register(t, sys, "stress", `
			for (k = 0; k < 20; k++) {
				sched_dlt(step);
				node.progress = node.progress + 1;
			}
		`)
		for d := 0; d < 4; d++ {
			for j := 0; j < 3; j++ {
				step := 0.25 * float64(j+1)
				err := sys.Inject(d, "stress", map[string]value.Value{"step": value.Num(step)})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}},
}

func TestRingGVTOrdersEventsAcrossDaemons(t *testing.T) {
	k, sys := simSystem(t, 3, WithDistributedGVT())
	register(t, sys, "waker", `
		sched_abs(when);
		print("wake", when, "on", $address);
	`)
	wakes := []struct {
		daemon int
		when   float64
	}{
		{2, 3.0}, {0, 1.0}, {1, 2.0}, {1, 0.5}, {0, 2.5},
	}
	for _, w := range wakes {
		err := sys.Inject(w.daemon, "waker", map[string]value.Value{"when": value.Num(w.when)})
		if err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, k, sys)
	out := sys.Output()
	if len(out) != len(wakes) {
		t.Fatalf("output = %v", out)
	}
	var prev float64
	for i, line := range out {
		when, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if when < prev {
			t.Errorf("line %d (%q) out of virtual-time order", i, line)
		}
		prev = when
	}
	if sys.Daemon(0).Stats.GVTRounds == 0 {
		t.Error("no ring rounds ran")
	}
	if sys.Daemon(1).coord != nil || sys.Daemon(0).ring == nil {
		t.Error("WithDistributedGVT did not replace the coordinator")
	}
	log := sys.CommitLog()
	if len(log) == 0 {
		t.Fatal("no GVT commits recorded")
	}
	for i := 1; i < len(log); i++ {
		if log[i] <= log[i-1] {
			t.Errorf("commit log not strictly increasing: %v", log)
		}
	}
}

func TestRingGVTAlternation(t *testing.T) {
	k, sys := simSystem(t, 2, WithDistributedGVT())
	ringWorkloads[1].load(t, sys)
	runSim(t, k, sys)
	got := strings.Join(sys.Output(), " ")
	want := "A 0 B 0 A 1 B 1 A 2 B 2"
	if got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

// TestRingGVTWithHopsBetweenEpochs checks the conservative property under
// the ring protocol: transient Messengers keep the token's counters
// unbalanced, so no epoch t' > t starts while a time-t hop is in flight.
func TestRingGVTWithHopsBetweenEpochs(t *testing.T) {
	k, sys := simSystem(t, 2, WithDistributedGVT())
	spec := NetSpec{
		Nodes: []NetNode{{Name: "src", Daemon: 0}, {Name: "dst", Daemon: 1}},
		Links: []NetLink{{A: "src", B: "dst", Name: "wire"}},
	}
	if err := sys.BuildNetwork(spec); err != nil {
		t.Fatal(err)
	}
	register(t, sys, "sender", `
		for (k = 0; k < 4; k++) {
			sched_abs(k);
			msgr.payload = k + 1;
			hop(ll = "wire");
			node.box = msgr.payload;
			hop(ll = "wire");
		}
	`)
	register(t, sys, "reader", `
		for (k = 0; k < 4; k++) {
			sched_abs(k + 0.5);
			print("read", node.box);
		}
	`)
	if err := sys.InjectAt(0, "sender", "src", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.InjectAt(1, "reader", "dst", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	got := strings.Join(sys.Output(), ", ")
	want := "read 1, read 2, read 3, read 4"
	if got != want {
		t.Errorf("reads = %q, want %q (conservative ordering violated)", got, want)
	}
}

// TestRingCommitLogMatchesCoordinator is the differential acceptance test:
// each workload, run under the coordinator and under the ring, must commit
// the identical sequence of GVT values (both implementations decide from
// the same balance invariant over deterministic wake-time frontiers).
func TestRingCommitLogMatchesCoordinator(t *testing.T) {
	for _, w := range ringWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func(opts ...Option) ([]float64, []string) {
				k, sys := simSystem(t, w.daemons, opts...)
				w.load(t, sys)
				runSim(t, k, sys)
				return sys.CommitLog(), sys.Output()
			}
			coordLog, coordOut := run()
			ringLog, ringOut := run(WithDistributedGVT())
			if len(ringLog) == 0 {
				t.Fatal("ring committed nothing")
			}
			if len(ringLog) != len(coordLog) {
				t.Fatalf("commit counts differ: ring %d %v, coordinator %d %v",
					len(ringLog), ringLog, len(coordLog), coordLog)
			}
			for i := range ringLog {
				if ringLog[i] != coordLog[i] {
					t.Fatalf("commit %d differs: ring %v, coordinator %v", i, ringLog, coordLog)
				}
			}
			if strings.Join(ringOut, "\n") != strings.Join(coordOut, "\n") {
				t.Errorf("outputs differ:\nring %v\ncoordinator %v", ringOut, coordOut)
			}
		})
	}
}

// ringWalk alternates virtual-time epochs with hops around a logical ring,
// so every GVT round has both suspended wake-ups and transient Messengers to
// account for.
const ringWalk = `
	for (k = 0; k < epochs; k++) {
		sched_dlt(0.5);
		hop(ll = "ring", ldir = +);
	}
`

// gvtCost is what one ringWalk run spent on GVT control traffic.
type gvtCost struct {
	rounds int64
	// d0PerRound is daemon 0's control sends per round: the coordinator's
	// O(N) funnel, the ring initiator's O(1).
	d0PerRound float64
	// maxPerRound is the worst daemon's control sends per round net of its
	// quiescence notifications (one per suspend): the protocol cost proper.
	maxPerRound float64
	roundMs     float64 // mean simulated round latency
}

// runRingWalk lays one logical node per daemon, closes them into a directed
// "ring", starts one walker on each, and drains the sim.
func runRingWalk(t *testing.T, n, epochs int, opts ...Option) gvtCost {
	t.Helper()
	k, sys := simSystem(t, n, opts...)
	name := func(i int) string { return "r" + strconv.Itoa(i) }
	spec := NetSpec{}
	for i := 0; i < n; i++ {
		spec.Nodes = append(spec.Nodes, NetNode{Name: name(i), Daemon: i})
		spec.Links = append(spec.Links, NetLink{A: name(i), B: name((i + 1) % n), Name: "ring", Dir: 1})
	}
	if err := sys.BuildNetwork(spec); err != nil {
		t.Fatal(err)
	}
	register(t, sys, "walk", ringWalk)
	vars := map[string]value.Value{"epochs": value.Int(int64(epochs))}
	for i := 0; i < n; i++ {
		if err := sys.InjectAt(i, "walk", name(i), vars); err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, k, sys)

	d0 := sys.Daemon(0).Stats
	c := gvtCost{rounds: d0.GVTRounds}
	if c.rounds == 0 {
		t.Fatal("no GVT rounds ran")
	}
	rounds := float64(c.rounds)
	c.d0PerRound = float64(d0.GVTCtlMsgs) / rounds
	c.roundMs = float64(d0.GVTRoundTime) / rounds / float64(sim.Millisecond)
	for i := 0; i < n; i++ {
		st := sys.Daemon(i).Stats
		if adj := float64(st.GVTCtlMsgs-st.Suspends) / rounds; adj > c.maxPerRound {
			c.maxPerRound = adj
		}
	}
	return c
}

// TestRingControlMessageComplexity pins the scaling claim out to 1000
// simulated daemons (the tree's only 1k-host run): a ring round moves the
// token through each daemon at most twice (accumulate + commit), so no
// daemon sends more than 2 control messages per round beyond its quiescence
// notifications, while the coordinator funnels a query to every other
// daemon through daemon 0. The logged columns are the table in docs/GVT.md.
func TestRingControlMessageComplexity(t *testing.T) {
	for _, c := range []struct{ n, epochs int }{{8, 20}, {64, 20}, {1000, 3}} {
		c := c
		t.Run("n="+strconv.Itoa(c.n), func(t *testing.T) {
			log := func(impl string, g gvtCost) {
				t.Helper()
				t.Logf("%-11s n=%d rounds=%d ctl/d0/round=%.1f ctl/max/round=%.2f round=%.3fms",
					impl, c.n, g.rounds, g.d0PerRound, g.maxPerRound, g.roundMs)
			}
			ring := runRingWalk(t, c.n, c.epochs, WithDistributedGVT())
			log("ring", ring)
			if ring.maxPerRound > 2.0 {
				t.Errorf("ring: %.2f control messages per daemon per round, budget 2", ring.maxPerRound)
			}
			if ring.roundMs <= 0 {
				t.Error("round latency accounting did not accumulate")
			}

			if os.Getenv("MSGR_DIST_GVT") == "1" {
				// The env override turns the coordinator leg below into a
				// second ring run, so its fan-out lower bound no longer applies.
				t.Skip("MSGR_DIST_GVT=1 forces ring mode; coordinator comparison unavailable")
			}
			coord := runRingWalk(t, c.n, c.epochs)
			log("coordinator", coord)
			if min := float64(c.n - 1); coord.d0PerRound < min {
				t.Errorf("coordinator daemon 0 sent %.1f control messages per round, expected at least %.0f",
					coord.d0PerRound, min)
			}
		})
	}
}

// TestRingGVTUnderLoss mirrors TestRecoveryGVTUnderLoss under the ring
// protocol: dropped tokens must be relaunched by the initiator's watchdog
// and virtual time must still advance in order.
func TestRingGVTUnderLoss(t *testing.T) {
	plan := &faults.Plan{Seed: 9, Drop: 0.25}
	k, sys, _ := faultSystem(t, 3, plan, WithDistributedGVT())
	register(t, sys, "waker", `
		sched_abs(when);
		print("wake", when);
	`)
	for i, when := range []float64{3.0, 1.0, 2.0} {
		err := sys.Inject(i, "waker", map[string]value.Value{"when": value.Num(when)})
		if err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, k, sys)
	out := sys.Output()
	want := []string{"wake 1.0", "wake 2.0", "wake 3.0"}
	if len(out) != len(want) {
		t.Fatalf("output = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, out[i], want[i])
		}
	}
}

// TestRingGVTCrashWithoutRestart kills a mid-ring daemon permanently: the
// token route must heal around it (succ skips dead peers) and the orphaned
// work must finish on the survivors.
func TestRingGVTCrashWithoutRestart(t *testing.T) {
	plan := &faults.Plan{
		Seed:    2,
		Crashes: []faults.Crash{{Daemon: 1, At: int64(50 * sim.Millisecond)}},
	}
	k, sys, _ := faultSystem(t, 3, plan, WithDistributedGVT())
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
	runSim(t, k, sys)
	if got := sys.Daemon(0).Store().Init().Vars["done"].AsInt(); got != 2 {
		t.Errorf("done = %d, want 2", got)
	}
}

// TestRingGVTCrashRespawn is the crash-with-restart chaos case under the
// ring: the respawn path and the ring watchdog must coexist.
func TestRingGVTCrashRespawn(t *testing.T) {
	plan := &faults.Plan{
		Seed: 1,
		Crashes: []faults.Crash{{
			Daemon:       1,
			At:           int64(50 * sim.Millisecond),
			RestartAfter: int64(20 * sim.Millisecond),
		}},
	}
	k, sys, metrics := faultSystem(t, 2, plan, WithDistributedGVT())
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
	runSim(t, k, sys)
	if got := sys.Daemon(0).Store().Init().Vars["done"].AsInt(); got != 1 {
		t.Errorf("done = %d, want 1", got)
	}
	if metrics.CounterValue("daemon.deaths") != 1 {
		t.Errorf("deaths = %d, want 1", metrics.CounterValue("daemon.deaths"))
	}
}

// TestRingGVTInitiatorCrash crashes daemon 0 — the round pacer — with a
// restart. Suspended daemons renotify the restarted initiator, so virtual
// time resumes advancing exactly as it does when the coordinator dies.
func TestRingGVTInitiatorCrash(t *testing.T) {
	plan := &faults.Plan{
		Seed: 4,
		Crashes: []faults.Crash{{
			Daemon:       0,
			At:           int64(30 * sim.Millisecond),
			RestartAfter: int64(20 * sim.Millisecond),
		}},
	}
	k, sys, _ := faultSystem(t, 3, plan, WithDistributedGVT())
	register(t, sys, "waker", `
		sched_abs(when);
		print("wake", when);
	`)
	// Inject on the survivors only: daemon 0's residents die with it.
	for i, when := range []float64{1.0, 2.0} {
		err := sys.Inject(i+1, "waker", map[string]value.Value{"when": value.Num(when)})
		if err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, k, sys)
	out := sys.Output()
	want := []string{"wake 1.0", "wake 2.0"}
	if len(out) != len(want) {
		t.Fatalf("output = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, out[i], want[i])
		}
	}
}

// TestRingGVTInitiatorCrashDuringPartition combines the two faults that were
// previously only tested separately: daemon 0 (the round pacer) crashes and
// restarts while a partition simultaneously isolates daemon 2, so the ring
// loses its initiator AND its tokens in the same window. The watchdog must
// keep relaunching rounds, the restarted initiator must be renotified by the
// suspended survivors, and once the partition heals virtual time must resume
// advancing in order.
func TestRingGVTInitiatorCrashDuringPartition(t *testing.T) {
	plan := &faults.Plan{
		Seed: 4,
		Crashes: []faults.Crash{{
			Daemon:       0,
			At:           int64(30 * sim.Millisecond),
			RestartAfter: int64(20 * sim.Millisecond),
		}},
		// Overlaps the crash window on both sides: the partition starts
		// before the initiator dies and heals after it has restarted.
		Partitions: []faults.Partition{{
			At:    int64(25 * sim.Millisecond),
			Heal:  int64(70 * sim.Millisecond),
			Group: []int{2},
		}},
	}
	k, sys, metrics := faultSystem(t, 3, plan, WithDistributedGVT())
	register(t, sys, "waker", `
		sched_abs(when);
		print("wake", when);
	`)
	// Inject on the survivors only: daemon 0's residents die with it.
	for i, when := range []float64{1.0, 2.0} {
		err := sys.Inject(i+1, "waker", map[string]value.Value{"when": value.Num(when)})
		if err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, k, sys)
	out := sys.Output()
	want := []string{"wake 1.0", "wake 2.0"}
	if len(out) != len(want) {
		t.Fatalf("output = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, out[i], want[i])
		}
	}
	// The combination must actually have exercised both faults: the
	// partition cut ring traffic and the daemon died.
	if metrics.CounterValue("faults.injected.partition") == 0 {
		t.Error("partition never dropped a message — the fault windows missed the ring traffic")
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
}

// TestChanEngineRingGVTOrdering is the real-engine (goroutine) smoke test
// for the ring protocol.
func TestChanEngineRingGVTOrdering(t *testing.T) {
	chanEngineGVTOrdering(t, WithDistributedGVT())
}

func TestGVTTokenEncodeDecodeRoundTrip(t *testing.T) {
	tok := &Msg{Kind: MsgGVTToken, From: 5, GPass: 2, GEpoch: 17, GMin: 3.5,
		GSent: 100, GRecv: 100, GVT: 3.25}
	dec, err := DecodeMsg(tok.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != MsgGVTToken || dec.GPass != 2 || dec.GEpoch != 17 ||
		dec.GMin != 3.5 || dec.GSent != 100 || dec.GRecv != 100 || dec.GVT != 3.25 {
		t.Errorf("round trip mismatch: %+v", dec)
	}
}

package core

import (
	"os"
	"strconv"
	"strings"
	"testing"

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
	if !sys.Daemon(0).initiator.ring {
		t.Error("WithDistributedGVT did not switch the initiator to the ring")
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

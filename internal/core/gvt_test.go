package core

import (
	"strconv"
	"strings"
	"testing"

	"messengers/internal/value"
)

// TestGVTOrdersEventsAcrossDaemons injects Messengers on different daemons
// that wake at interleaved virtual times; the global print order must follow
// virtual time even though the daemons are independent.
func TestGVTOrdersEventsAcrossDaemons(t *testing.T) {
	k, sys := simSystem(t, 3)
	register(t, sys, "waker", `
		sched_abs(when);
		print("wake", when, "on", $address);
	`)
	// Inject in an order unrelated to wake times.
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
		fields := strings.Fields(line)
		when, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if when < prev {
			t.Errorf("line %d (%q) out of virtual-time order", i, line)
		}
		prev = when
	}
	if st := sys.TotalStats(); st.Suspends != int64(len(wakes)) {
		t.Errorf("suspends = %d", st.Suspends)
	}
	if sys.Daemon(0).Stats.GVTRounds == 0 {
		t.Error("no GVT rounds ran")
	}
}

// TestGVTAlternation reproduces the matmul coordination pattern: one set of
// Messengers wakes at integer ticks, another at half ticks, and they must
// strictly alternate.
func TestGVTAlternation(t *testing.T) {
	k, sys := simSystem(t, 2)
	register(t, sys, "full", `
		for (k = 0; k < 3; k++) {
			sched_abs(k);
			print("A", k);
		}
	`)
	// sched_dlt accumulates from the Messenger's LVT, so the paper's
	// "wake at every half tick 0.5 + k" is written as an absolute
	// schedule (a repeated dlt of 0.5 would land on integer ticks and tie
	// with the full-tick set).
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
	runSim(t, k, sys)
	got := strings.Join(sys.Output(), " ")
	want := "A 0 B 0 A 1 B 1 A 2 B 2"
	if got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

// TestGVTWithHopsBetweenEpochs checks the conservative property that a
// Messenger sent during epoch t is processed before any epoch t' > t starts:
// a sender deposits into a remote node at time k, a reader on that node
// wakes at k+0.5 and must see the deposit.
func TestGVTWithHopsBetweenEpochs(t *testing.T) {
	k, sys := simSystem(t, 2)
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

func TestSchedInThePastContinuesImmediately(t *testing.T) {
	k, sys := simSystem(t, 1)
	register(t, sys, "past", `
		sched_abs(0);   // GVT is already 0
		print("t", $time);
	`)
	if err := sys.Inject(0, "past", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if out := sys.Output(); len(out) != 1 || out[0] != "t 0.0" {
		t.Errorf("output = %v", out)
	}
	if st := sys.TotalStats(); st.Suspends != 0 {
		t.Errorf("suspends = %d, want 0", st.Suspends)
	}
}

func TestNetworkVariables(t *testing.T) {
	k, sys := simSystem(t, 3)
	register(t, sys, "net", `
		print($address, $daemon, $ndaemons, $node, $gvt);
	`)
	if err := sys.Inject(2, "net", nil); err != nil {
		t.Fatal(err)
	}
	runSim(t, k, sys)
	if out := sys.Output(); len(out) != 1 || out[0] != "d2 2 3 init 0.0" {
		t.Errorf("output = %v", out)
	}
}

func TestGVTManyEpochsConverge(t *testing.T) {
	// Stress: 4 daemons x 3 Messengers each, 20 epochs of mixed abs/dlt
	// scheduling; everything must terminate and stay ordered.
	k, sys := simSystem(t, 4)
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
	runSim(t, k, sys)
	total := int64(0)
	for d := 0; d < 4; d++ {
		total += sys.Daemon(d).Store().Init().Vars["progress"].AsInt()
	}
	if total != 4*3*20 {
		t.Errorf("progress = %d, want %d", total, 4*3*20)
	}
}

func TestMsgWireSizeByKind(t *testing.T) {
	big := &Msg{Kind: MsgMessenger, Snapshot: make([]byte, 1000)}
	small := &Msg{Kind: MsgGVTQuery}
	if big.WireSize() <= small.WireSize() {
		t.Error("messenger transfer should be larger than control message")
	}
	if !big.CarriesMessenger() || small.CarriesMessenger() {
		t.Error("CarriesMessenger misclassifies")
	}
}

func TestTopologies(t *testing.T) {
	full := FullMesh(4)
	if got := full.MatchDaemons(0, value.Str("*"), value.Str("*"), value.Str("*")); len(got) != 3 {
		t.Errorf("full mesh neighbors = %v", got)
	}
	// Named daemon.
	if got := full.MatchDaemons(0, value.Str("d2"), value.Str("*"), value.Str("*")); len(got) != 1 || got[0] != 2 {
		t.Errorf("dn=d2 -> %v", got)
	}
	// Numeric daemon id.
	if got := full.MatchDaemons(0, value.Int(3), value.Str("*"), value.Str("*")); len(got) != 1 || got[0] != 3 {
		t.Errorf("dn=3 -> %v", got)
	}

	ring := Ring(4)
	fwd := ring.MatchDaemons(1, value.Str("*"), value.Str("ring"), value.Str("+"))
	if len(fwd) != 1 || fwd[0] != 2 {
		t.Errorf("ring forward from 1 = %v", fwd)
	}
	back := ring.MatchDaemons(1, value.Str("*"), value.Str("ring"), value.Str("-"))
	if len(back) != 1 || back[0] != 0 {
		t.Errorf("ring backward from 1 = %v", back)
	}

	grid := Grid(2, 3)
	if grid.NumDaemons() != 6 {
		t.Errorf("grid daemons = %d", grid.NumDaemons())
	}
	// Daemon (0,1) = 1 has east, west, and south neighbors.
	if got := grid.MatchDaemons(1, value.Str("*"), value.Str("*"), value.Str("*")); len(got) != 3 {
		t.Errorf("grid neighbors of 1 = %v", got)
	}
	if got := grid.MatchDaemons(1, value.Str("*"), value.Str("ns"), value.Str("*")); len(got) != 1 || got[0] != 4 {
		t.Errorf("grid ns from 1 = %v", got)
	}

	star := Star(5)
	if got := star.MatchDaemons(0, value.Str("*"), value.Str("*"), value.Str("*")); len(got) != 4 {
		t.Errorf("star hub neighbors = %v", got)
	}
	if got := star.MatchDaemons(2, value.Str("*"), value.Str("*"), value.Str("*")); len(got) != 1 || got[0] != 0 {
		t.Errorf("star spoke neighbors = %v", got)
	}
}

func TestTopologyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopology(0) should panic")
		}
	}()
	NewTopology(0)
}

func TestDaemonNames(t *testing.T) {
	if DaemonName(7) != "d7" {
		t.Errorf("DaemonName = %q", DaemonName(7))
	}
}

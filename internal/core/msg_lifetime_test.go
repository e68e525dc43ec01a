package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"messengers/internal/lan"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// starSimSystem is simSystem under the coordinator GVT whatever the
// environment asks for: these tests count the star's messages.
func starSimSystem(n int) (*sim.Kernel, *System) {
	k := sim.New()
	cluster := lan.NewCluster(k, lan.DefaultCostModel(), n, lan.SPARC110)
	return k, NewSystem(NewSimEngine(cluster), FullMesh(n))
}

// TestSimSendAllocatesNothing: once its pools are warm, the simulated
// engine carries a GVT query to a daemon, and the daemon's report back,
// without allocating. The query is a copy in a pooled record, and the
// report leaves through the daemon's outgoing slot.
func TestSimSendAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k, sys := starSimSystem(2)
	eng := sys.eng.(*SimEngine)
	q := &Msg{Kind: MsgGVTQuery, From: 0}
	exchange := func() {
		eng.Send(0, 1, q)
		k.Run()
	}
	exchange()
	if n := testing.AllocsPerRun(100, exchange); n != 0 {
		t.Errorf("a warm query and report allocate %v times, want 0", n)
	}
	if got := sys.Daemon(1).Stats.GVTCtlMsgs; got != 102 {
		t.Errorf("daemon 1 sent %d reports, want 102", got)
	}
}

// TestStarRoundAllocatesO1: a coordinator round on a warm 64-daemon
// simulated system, a query, a report and an advance per daemon, allocates
// nothing but the amortized growth of the commit log, not a message per
// daemon: even its pacing timer is a MsgGVTRestart on a pooled record.
func TestStarRoundAllocatesO1(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 64
	k, sys := starSimSystem(n)
	g := sys.Daemon(0).initiator
	// A resident Messenger's LVT is what each round commits, so every
	// round ends in an advance to all.
	m := &Messenger{ID: 1 << 62}
	sys.Daemon(n / 2).active[m.ID] = m
	round := func(lvt float64) {
		m.LVT = lvt
		g.startRound()
		k.Run()
	}
	for r := 1; r <= 4; r++ {
		round(float64(r))
	}
	sent0, logCap := sys.TotalStats().GVTCtlMsgs, cap(sys.commits)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round(5)
	runtime.ReadMemStats(&after)
	if got := sys.Daemon(n - 1).gvt; got != 5 {
		t.Fatalf("daemon %d's GVT = %v after the round, want 5", n-1, got)
	}
	if sent := sys.TotalStats().GVTCtlMsgs - sent0; sent != 3*(n-1) {
		t.Fatalf("the round sent %d control messages, want %d", sent, 3*(n-1))
	}
	mallocs := after.Mallocs - before.Mallocs
	if cap(sys.commits) != logCap {
		mallocs-- // daemon 0's commit log, the run's history, grew
	}
	if mallocs > 0 {
		t.Errorf("one star round of %d daemons allocated %d objects, want 0", n, mallocs)
	}
}

// TestSimSendCopiesMsg: the simulated engine's Send copies the message, so
// the sender may overwrite it at once and the receiver still sees it as
// sent.
func TestSimSendCopiesMsg(t *testing.T) {
	k, sys := starSimSystem(2)
	msg := &Msg{Kind: MsgGVTAdvance, From: 0, GVT: 5}
	sys.eng.Send(0, 1, msg)
	*msg = Msg{Kind: MsgGVTAdvance, From: 0, GVT: 99}
	k.Run()
	if got := sys.Daemon(1).gvt; got != 5 {
		t.Errorf("daemon 1 installed GVT %v, want 5 as sent", got)
	}
}

// TestChanSendCopiesMsg is TestSimSendCopiesMsg on the channel engine:
// daemon 1's executor is held until the sender has overwritten the
// message.
func TestChanSendCopiesMsg(t *testing.T) {
	sys := chanSystem(t, 2)
	started, release := make(chan struct{}), make(chan struct{})
	sys.Do(1, func(*Daemon) {
		close(started)
		<-release
	})
	<-started
	msg := &Msg{Kind: MsgGVTAdvance, From: 0, GVT: 5}
	sys.eng.Send(0, 1, msg)
	*msg = Msg{Kind: MsgGVTAdvance, From: 0, GVT: 99}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := make(chan float64, 1)
		sys.Do(1, func(d *Daemon) { got <- d.gvt })
		if gvt := <-got; gvt != 0 {
			if gvt != 5 {
				t.Errorf("daemon 1 installed GVT %v, want 5 as sent", gvt)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the advance never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFullMeshAllocatesEachListOnce: a full mesh sizes each adjacency list
// once, so building one makes about n allocations, not about n log n, and
// holds the same edges in the same order as edge-by-edge construction.
func TestFullMeshAllocatesEachListOnce(t *testing.T) {
	const n = 256
	want := NewTopology(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want.AddEdge(i, j, "", false)
		}
	}
	if got := FullMesh(n); !reflect.DeepEqual(got.adj, want.adj) {
		t.Fatal("FullMesh's edges differ from AddEdge's")
	}
	if raceDetector {
		return
	}
	if a := testing.AllocsPerRun(5, func() { FullMesh(n) }); a > n+4 {
		t.Errorf("FullMesh(%d) makes %v allocations, want about %d", n, a, n)
	}
}

// TestSimStepExecAllocatesNothing: scheduling a Messenger's next step on the
// simulated engine and delivering it is a MsgStep copied into a pooled
// record, and allocates nothing.
func TestSimStepExecAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k, sys := starSimSystem(1)
	d := sys.Daemon(0)
	m := &Messenger{ID: 1 << 62} // not resident: the step is delivered and dropped
	step := func() {
		d.next(m, d.cm.CallFixed)
		k.Run()
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("a warm simulated step allocates %v times, want 0", n)
	}
}

// TestChanSendAllocatesAtMostOne: the channel engine's lanes hold copies of
// the messages they queue, so a warm Send needs neither a closure nor a
// heap copy of the message.
func TestChanSendAllocatesAtMostOne(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys := chanSystem(t, 2)
	// An advance to a GVT already installed is handled without allocating.
	msg := &Msg{Kind: MsgGVTAdvance, From: 0}
	for i := 0; i < 200; i++ {
		sys.eng.Send(0, 1, msg)
	}
	if n := testing.AllocsPerRun(1000, func() { sys.eng.Send(0, 1, msg) }); n > 1 {
		t.Errorf("a warm ChanEngine.Send allocates %v times, want at most 1", n)
	}
}

// TestRemoteHopKeepsItsMsgOffTheHeap: with recovery off nothing keeps a
// departing hop's message, so it leaves through the daemon's outgoing slot
// and a warm simulated remote scalar hop allocates no 360-byte Msg: at most
// 872 bytes less one Msg, 872 being what a hop allocated with one.
func TestRemoteHopKeepsItsMsgOffTheHeap(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k, sys := starSimSystem(2)
	err := sys.BuildNetwork(NetSpec{
		Nodes: []NetNode{{Name: "r0", Daemon: 0}, {Name: "r1", Daemon: 1}},
		Links: []NetLink{{A: "r0", B: "r1", Name: "ring"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	register(t, sys, "walker", `for (k = 0; k < hops; k++) { hop(ll = "ring"); }`)
	walk := func(hops int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := sys.InjectAt(0, "walker", "r0", map[string]value.Value{"hops": value.Int(int64(hops))}); err != nil {
			t.Fatal(err)
		}
		k.Run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	walk(2000) // warm the pools and berths
	const short, long = 100, 4100
	perHop := float64(walk(long)-walk(short)) / (long - short)
	t.Logf("%.0f bytes per remote hop", perHop)
	if perHop > 872-360 {
		t.Errorf("a warm remote hop allocates %.0f bytes, want at most %d (the parent's %d less a Msg)", perHop, 872-360, 872)
	}
}

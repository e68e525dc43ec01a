package core

import (
	"fmt"
	"testing"
	"time"

	"messengers/internal/compile"
	"messengers/internal/value"
	"messengers/internal/vm"
)

// TestExecLaneReusesItsArray: a lane that fills and drains, as a daemon's
// lanes do once per burst, keeps one backing array; popping used to walk the
// slice off it, so put reallocated about 1.6 times per hop.
func TestExecLaneReusesItsArray(t *testing.T) {
	var l execLane
	var ran int
	msg := &Msg{Kind: MsgStep}
	var it queued
	cycle := func() {
		for i := 0; i < 8; i++ {
			l.put(msg, nil)
		}
		for l.pop(&it) {
			ran++
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a fill-and-drain cycle of a warm lane allocates %v times, want 0", n)
	}
	if ran != 8*102 {
		t.Errorf("ran %d items, want %d", ran, 8*102)
	}

	// A lane that never empties must not grow without bound either, and
	// must stay FIFO while its pending tail slides down the array.
	var steady execLane
	next, want := uint64(0), uint64(0)
	put := func() {
		steady.put(&Msg{Kind: MsgStep, MsgrID: next}, nil)
		next++
	}
	for i := 0; i < 4; i++ {
		put()
	}
	for i := 0; i < 10000; i++ {
		put()
		steady.pop(&it)
		if it.msg.MsgrID != want {
			t.Fatalf("popped item %d, want %d", it.msg.MsgrID, want)
		}
		want++
	}
	if c := cap(steady.items); c > 64 {
		t.Errorf("a lane holding 4 items grew its array to %d slots", c)
	}
}

// TestExecQueueIdleHook: the hook runs on the executor each time the queue
// runs dry, again when Wake asks for it, and a last time as it stops.
func TestExecQueueIdleHook(t *testing.T) {
	x := unstarted()
	idles := make(chan int, 64) // far more than the handful of idle calls below
	items, sawClosed := 0, false
	x.idle = func(int) {
		sawClosed = sawClosed || x.execs[0].closed.Load()
		idles <- items
	}
	x.wg.Add(1)
	go x.run(0)
	if got := <-idles; got != 0 {
		t.Fatalf("first idle saw %d items", got)
	}
	x.Put(0, LaneLocal, doMsg(func() { items++ }), nil)
	for got := range idles {
		if got == 1 {
			break
		}
	}
	// Let the Put's own wake-up be spent, so the next idle call is Wake's.
	for drained := false; !drained; {
		select {
		case <-idles:
		case <-time.After(20 * time.Millisecond):
			drained = true
		}
	}
	x.Wake(0)
	select {
	case <-idles:
	case <-time.After(5 * time.Second):
		t.Fatal("Wake did not bring the idle hook round again")
	}
	x.Close()
	if !sawClosed {
		t.Error("the executor stopped without a last idle call")
	}
}

// TestBerthsRecycleUnderRecovery drives the one berth path the in-process
// engines have: under recovery a departing Messenger is snapshotted in ship,
// its VM parked there, and the arrival's restore drains the list. The walk's
// books must balance, berths must actually circulate, and the list must
// stay bounded.
func TestBerthsRecycleUnderRecovery(t *testing.T) {
	const daemons, walkers, hops = 2, 12, 200
	sys := chanSystem(t, daemons, WithRecovery(RecoveryConfig{}))
	spec := NetSpec{}
	for i := 0; i < daemons; i++ {
		spec.Nodes = append(spec.Nodes, NetNode{Name: fmt.Sprintf("r%d", i), Daemon: i})
		spec.Links = append(spec.Links, NetLink{A: fmt.Sprintf("r%d", i), B: fmt.Sprintf("r%d", (i+1)%daemons), Name: "ring", Dir: 1})
	}
	if err := sys.BuildNetwork(spec); err != nil {
		t.Fatal(err)
	}
	sys.Register(compile.MustCompile("walker", `
		for (k = 0; k < hops; k++) {
			node.visits = node.visits + 1;
			tail = tail + "x";
			hop(ll = "ring", ldir = +);
		}
	`))
	for i := 0; i < walkers; i++ {
		vars := map[string]value.Value{"hops": value.Int(hops), "tail": value.Str("")}
		if i%2 == 1 {
			vars["extra"] = value.Arr([]value.Value{value.Int(int64(i))})
		}
		if err := sys.InjectAt(i%daemons, "walker", fmt.Sprintf("r%d", i%daemons), vars); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, sys)
	var visits int64
	for d := 0; d < daemons; d++ {
		vars, _ := sys.ReadNodeVars(d, fmt.Sprintf("r%d", d))
		visits += vars["visits"].AsInt()
		parked := make(chan int)
		sys.Do(d, func(dae *Daemon) { parked <- len(dae.berths) })
		if n := <-parked; n == 0 || n > maxBerths {
			t.Errorf("daemon %d ended with %d berths parked, want 1..%d", d, n, maxBerths)
		}
	}
	if visits != walkers*hops {
		t.Errorf("node.visits sum to %d, want %d", visits, walkers*hops)
	}
}

// TestParkVMBounded: the free list takes maxBerths and drops the rest.
func TestParkVMBounded(t *testing.T) {
	sys := chanSystem(t, 1)
	prog := compile.MustCompile("p", `x = 1;`)
	done := make(chan int)
	sys.Do(0, func(d *Daemon) {
		for i := 0; i < 3*maxBerths; i++ {
			d.ParkVM(vm.New(prog, nil))
		}
		done <- len(d.berths)
	})
	if n := <-done; n != maxBerths {
		t.Errorf("%d berths parked, want %d", n, maxBerths)
	}
}

package core

import (
	"strings"
	"testing"
	"time"

	"messengers/internal/compile"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// chanSystem builds a real (goroutine) n-daemon system. The cleanup closes
// the engine.
func chanSystem(t *testing.T, n int, opts ...Option) *System {
	t.Helper()
	eng := NewChanEngine(n)
	sys := NewSystem(eng, FullMesh(n), distGVTEnv(opts)...)
	t.Cleanup(eng.Close)
	return sys
}

// waitDone waits for quiescence with a watchdog so a broken run fails
// rather than hangs.
func waitDone(t *testing.T, sys *System) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("system did not quiesce (live=%d)", sys.Live())
	}
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
}

func TestChanEngineFigure3ManagerWorker(t *testing.T) {
	const nDaemons = 4
	const nTasks = 40
	sys := chanSystem(t, nDaemons)

	sys.RegisterNative("next_task", func(ctx *NativeCtx, _ []value.Value) (value.Value, error) {
		next := ctx.NodeVar("next").AsInt()
		if next >= nTasks {
			return value.Nil(), nil
		}
		ctx.SetNodeVar("next", value.Int(next+1))
		return value.Int(next), nil
	})
	sys.RegisterNative("compute", func(_ *NativeCtx, args []value.Value) (value.Value, error) {
		return value.Int(args[0].AsInt() * 3), nil
	})
	sys.RegisterNative("deposit", func(ctx *NativeCtx, args []value.Value) (value.Value, error) {
		ctx.SetNodeVar("acc", value.Int(ctx.NodeVar("acc").AsInt()+args[0].AsInt()))
		return value.Nil(), nil
	})

	prog, err := compile.Compile("mw", `
		create(ALL);
		hop(ll = $last);
		while ((task = next_task()) != nil) {
			hop(ll = $last);
			res = compute(task);
			hop(ll = $last);
			deposit(res);
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)
	if err := sys.Inject(0, "mw", nil); err != nil {
		t.Fatal(err)
	}
	waitDone(t, sys)

	// Read the result on the daemon's executor to avoid racing with it.
	result := make(chan int64, 1)
	sys.Do(0, func(d *Daemon) { result <- d.Store().Init().Vars["acc"].AsInt() })
	want := int64(0)
	for i := int64(0); i < nTasks; i++ {
		want += i * 3
	}
	if got := <-result; got != want {
		t.Errorf("acc = %d, want %d", got, want)
	}
}

func TestChanEngineGVTOrdering(t *testing.T) { chanEngineGVTOrdering(t) }

// chanEngineGVTOrdering is the real-engine (goroutine) smoke test of virtual
// time, for the coordinator and (gvt_ring_test.go) the ring: two tickers
// injected from outside must print in virtual-time order.
func chanEngineGVTOrdering(t *testing.T, opts ...Option) {
	sys := chanSystem(t, 3, append(opts, WithGVTInterval(sim.Millisecond/2))...)
	prog, err := compile.Compile("ticker", `
		for (k = 0; k < 5; k++) {
			sched_abs(k * spacing + phase);
			print(tag, k);
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)
	inject := func(d int, tag string, phase float64) {
		t.Helper()
		err := sys.Inject(d, "ticker", map[string]value.Value{
			"tag": value.Str(tag), "phase": value.Num(phase), "spacing": value.Num(1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Injection is not in the GVT books: a round that concluded after Y had
	// suspended and before X had would carry Y past X (about one run in
	// eight did). Rounds of either protocol start on daemon 0 and pass
	// through it, so it is held until both are suspended; a daemon has run
	// its inject once a first barrier returns, and the suspension that
	// queued once a second one does.
	gate, held := make(chan struct{}), make(chan struct{})
	sys.Do(0, func(*Daemon) {
		close(held)
		<-gate
	})
	<-held
	inject(1, "X", 0.2)
	inject(2, "Y", 0.6)
	for _, d := range []int{1, 2, 1, 2} {
		ran := make(chan struct{})
		sys.Do(d, func(*Daemon) { close(ran) })
		<-ran
	}
	close(gate)
	waitDone(t, sys)

	out := sys.Output()
	if len(out) != 10 {
		t.Fatalf("output = %v", out)
	}
	// Virtual-time order: X k, Y k, X k+1, Y k+1, ...
	for i, line := range out {
		wantTag := "X"
		if i%2 == 1 {
			wantTag = "Y"
		}
		if !strings.HasPrefix(line, wantTag) {
			t.Errorf("line %d = %q, want prefix %q", i, line, wantTag)
		}
	}
}

func TestChanEngineParallelismAcrossDaemons(t *testing.T) {
	// Replicas on different daemons really run concurrently: N workers
	// each sleep ~20ms; the whole run must take far less than N*20ms.
	const n = 8
	sys := chanSystem(t, n)
	sys.RegisterNative("nap", func(_ *NativeCtx, _ []value.Value) (value.Value, error) {
		time.Sleep(20 * time.Millisecond)
		return value.Nil(), nil
	})
	prog, err := compile.Compile("napper", `
		create(ALL);
		x = nap();
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)
	start := time.Now()
	if err := sys.Inject(0, "napper", nil); err != nil {
		t.Fatal(err)
	}
	waitDone(t, sys)
	elapsed := time.Since(start)
	if elapsed > 100*time.Millisecond {
		t.Errorf("7 parallel 20ms naps took %v; daemons are not concurrent", elapsed)
	}
}

func TestChanEngineCloseIsIdempotentAndStopsWork(t *testing.T) {
	eng := NewChanEngine(2)
	sys := NewSystem(eng, FullMesh(2))
	_ = sys
	eng.Close()
	// Post-close puts are dropped rather than panicking.
	eng.Exec(0, 0, &Msg{Kind: MsgDo, do: func(*Daemon) { t.Error("ran after Close") }})
}

// doMsg is a MsgDo running fn.
func doMsg(fn func()) *Msg { return &Msg{Kind: MsgDo, do: func(*Daemon) { fn() }} }

// unstarted is one daemon's executors with no goroutine draining them.
func unstarted() *Executors {
	x := &Executors{execs: make([]executor, 1)}
	x.execs[0].ready = make(chan struct{}, 1)
	x.Bind([]*Daemon{{}})
	return x
}

// drain hands every message x holds to its daemon, as run does.
func drain(x *Executors) {
	var it queued
	for q := &x.execs[0]; q.next(&it); {
		q.d.HandleMsg(&it.msg)
	}
}

func TestExecQueueFIFOWithinLane(t *testing.T) {
	x := unstarted()
	var got []int
	for i := 0; i < 100; i++ {
		x.Put(0, LaneNet, doMsg(func() { got = append(got, i) }), nil)
	}
	drain(x)
	if len(got) != 100 {
		t.Fatalf("drained %d of 100 items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, v)
		}
	}
	x.Close()
	if x.execs[0].next(new(queued)) {
		t.Error("drained queue should report !ok")
	}
}

func TestExecQueueLanePriority(t *testing.T) {
	x := unstarted()
	var got []string
	x.Put(0, LaneLocal, doMsg(func() { got = append(got, "local") }), nil)
	x.Put(0, LaneNet, doMsg(func() { got = append(got, "net") }), nil)
	x.Put(0, LaneControl, doMsg(func() { got = append(got, "control") }), nil)
	drain(x)
	want := []string{"control", "net", "local"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", got, want)
		}
	}
}

func TestExecQueueRunDrainsOnClose(t *testing.T) {
	x := unstarted()
	done := make(chan int, 3)
	for i := 0; i < 3; i++ {
		x.Put(0, LaneLocal, doMsg(func() { done <- i }), nil)
	}
	x.Close()
	finished := make(chan struct{})
	x.wg.Add(1)
	go func() {
		x.run(0)
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after Close")
	}
	if len(done) != 3 {
		t.Errorf("run drained %d of 3 queued items before exiting", len(done))
	}
	// Post-close puts are dropped rather than panicking.
	x.Put(0, LaneNet, doMsg(func() {}), nil)
}

func TestLaneForClassifiesKinds(t *testing.T) {
	control := []MsgKind{MsgGVTNotify, MsgGVTQuery, MsgGVTReport, MsgGVTAdvance,
		MsgGVTToken, MsgHopAck, MsgHeartbeat}
	for _, k := range control {
		if LaneFor(k) != LaneControl {
			t.Errorf("LaneFor(%v) = %v, want LaneControl", k, LaneFor(k))
		}
	}
	net := []MsgKind{MsgMessenger, MsgCreate, MsgCreateAck, MsgInject}
	for _, k := range net {
		if LaneFor(k) != LaneNet {
			t.Errorf("LaneFor(%v) = %v, want LaneNet", k, LaneFor(k))
		}
	}
}

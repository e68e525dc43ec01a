package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/faults"
	"messengers/internal/logical"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
)

// The tests below watch frames through two windows. Going out: the
// transport.frames and transport.writes counters. Coming in: daemon 0's
// GVT commit log, which records every MsgGVTAdvance that raises its GVT, so
// advances 1..k sent in order arrive complete and in order exactly when the
// log reads 1..k.

// meteredTCP is a 2-daemon TCP system with the transport's counters on.
func meteredTCP(t *testing.T, opts ...core.Option) (*core.System, *TCPEngine, *obs.Metrics) {
	t.Helper()
	sys, eng := tcpSystem(t, 2, opts...)
	met := obs.NewMetrics()
	eng.SetMetrics(met)
	return sys, eng, met
}

func advance(gvt int) *core.Msg {
	return &core.Msg{Kind: core.MsgGVTAdvance, From: 1, GVT: float64(gvt)}
}

// waitCommits waits until daemon 0 has committed exactly 1..k.
func waitCommits(t *testing.T, sys *core.System, k int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(sys.CommitLog()) < k {
		if time.Now().After(deadline) {
			t.Fatalf("daemon 0 committed %v, want 1..%d", sys.CommitLog(), k)
		}
		time.Sleep(time.Millisecond)
	}
	for i, g := range sys.CommitLog() {
		if g != float64(i+1) {
			t.Fatalf("commit log %v: frames lost or out of send order", sys.CommitLog())
		}
	}
}

// holdExecutor parks daemon d's executor inside an item until the returned
// release is called, so that everything queued meanwhile runs back to back
// in one executor run, with no idle flush in between.
func holdExecutor(sys *core.System, d int) (release func()) {
	gate, held := make(chan struct{}), make(chan struct{})
	sys.Do(d, func(*core.Daemon) {
		close(held)
		<-gate
	})
	<-held
	return func() { close(gate) }
}

// ringOf2 lays r0 <-> r1 as a directed ring and registers the walker.
func ringOf2(t *testing.T, sys *core.System, src string) {
	t.Helper()
	err := sys.BuildNetwork(core.NetSpec{
		Nodes: []core.NetNode{{Name: "r0", Daemon: 0}, {Name: "r1", Daemon: 1}},
		Links: []core.NetLink{
			{A: "r0", B: "r1", Name: "ring", Dir: 1},
			{A: "r1", B: "r0", Name: "ring", Dir: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile("walker", src)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)
}

const scalarWalker = `
	for (k = 0; k < hops; k++) {
		node.visits = node.visits + 1;
		hop(ll = "ring", ldir = +);
	}`

func visits(sys *core.System) (sum int64) {
	for d := 0; d < 2; d++ {
		got := make(chan int64, 1)
		name := fmt.Sprintf("r%d", d)
		sys.Do(d, func(*core.Daemon) {
			vars, _ := sys.ReadNodeVars(d, name)
			got <- vars["visits"].AsInt()
		})
		sum += <-got
	}
	return sum
}

// TestBurstLeavesInOneWrite: the frames one executor run sends to one peer
// arrive in send order and cost one write, not one each.
func TestBurstLeavesInOneWrite(t *testing.T) {
	const k = 8
	sys, eng, met := meteredTCP(t)
	sys.Do(1, func(*core.Daemon) {
		for i := 1; i <= k; i++ {
			eng.Send(1, 0, advance(i))
		}
		if w := met.CounterValue("transport.writes"); w != 0 {
			t.Errorf("%d writes before the executor ran dry: frames did not wait for each other", w)
		}
	})
	waitCommits(t, sys, k)
	if f, w := met.CounterValue("transport.frames"), met.CounterValue("transport.writes"); f != k || w != 1 {
		t.Errorf("a burst of %d frames: transport.frames = %d, transport.writes = %d, want %d and 1", k, f, w, k)
	}
}

// TestBurstLargerThanTheBuffer: when the writer's buffer fills, what waits
// leaves and the burst goes on; a frame larger than the buffer goes to the
// socket whole, in one Write of its own, after what was sent before it.
func TestBurstLargerThanTheBuffer(t *testing.T) {
	sys, eng, met := meteredTCP(t)
	// A carrier only: daemon 0 ignores a create ack for a node it does not
	// have.
	big := &core.Msg{Kind: core.MsgCreateAck, From: 1, Origin: logical.Addr{Node: 1 << 40},
		AckPeerName: string(bytes.Repeat([]byte{0xee}, 64<<10))}
	sys.Do(1, func(*core.Daemon) {
		eng.Send(1, 0, advance(1))
		eng.Send(1, 0, big)
		eng.Send(1, 0, advance(2))
	})
	waitCommits(t, sys, 2)
	if f, w := met.CounterValue("transport.frames"), met.CounterValue("transport.writes"); f != 3 || w != 3 {
		t.Errorf("small, 64 KB, small: transport.frames = %d, transport.writes = %d, want 3 and 3 (flush, direct write, flush)", f, w)
	}
	if errs := eng.errs.List(); len(errs) != 0 {
		t.Errorf("transport errors: %v", errs)
	}
}

// TestSerialLapWritesEqualFrames: one Messenger in flight pays exactly one
// write per hop; coalescing never holds a lone frame back.
func TestSerialLapWritesEqualFrames(t *testing.T) {
	const hops = 300
	sys, eng, met := meteredTCP(t)
	ringOf2(t, sys, scalarWalker)
	if err := sys.InjectAt(0, "walker", "r0", map[string]value.Value{"hops": value.Int(hops)}); err != nil {
		t.Fatal(err)
	}
	waitQuiesce(t, sys, eng)
	if got := visits(sys); got != hops {
		t.Errorf("node.visits sum to %d, want %d", got, hops)
	}
	if f, w := met.CounterValue("transport.frames"), met.CounterValue("transport.writes"); f != hops || w != hops {
		t.Errorf("serial lap of %d hops: transport.frames = %d, transport.writes = %d, want both %d", hops, f, w, hops)
	}
}

// TestMessengersInFlightShareWrites: with 8 walkers in flight the bursts
// form by themselves, and writes fall well below frames.
func TestMessengersInFlightShareWrites(t *testing.T) {
	const walkers, hops = 8, 400
	sys, eng, met := meteredTCP(t)
	ringOf2(t, sys, scalarWalker)
	release := []func(){holdExecutor(sys, 0), holdExecutor(sys, 1)}
	for i := 0; i < walkers; i++ {
		if err := sys.InjectAt(i%2, "walker", fmt.Sprintf("r%d", i%2), map[string]value.Value{"hops": value.Int(hops)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range release {
		r()
	}
	waitQuiesce(t, sys, eng)
	if got := visits(sys); got != walkers*hops {
		t.Errorf("node.visits sum to %d, want %d", got, walkers*hops)
	}
	f, w := met.CounterValue("transport.frames"), met.CounterValue("transport.writes")
	if f != walkers*hops {
		t.Errorf("transport.frames = %d, want %d", f, walkers*hops)
	}
	t.Logf("%d in flight: %d frames in %d writes (%.2f writes per frame)", walkers, f, w, float64(w)/float64(f))
	if 2*w > f {
		t.Errorf("%d writes for %d frames: more than one write per two frames with %d Messengers in flight", w, f, walkers)
	}
}

// TestFrameDoesNotWaitBehindComputation: a frame sent earlier in an executor
// run is on the wire before the daemon starts a VM segment, so it reaches
// its peer while the native call that segment pauses for is still running.
func TestFrameDoesNotWaitBehindComputation(t *testing.T) {
	sys, eng, _ := meteredTCP(t)
	entered, finish := make(chan struct{}), make(chan struct{})
	defer close(finish) // on a failed wait too, or Close would wait for the call forever
	sys.RegisterNative("long_call", func(*core.NativeCtx, []value.Value) (value.Value, error) {
		close(entered)
		<-finish
		return value.Nil(), nil
	})
	prog, err := compile.Compile("slow", `long_call();`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)

	release := holdExecutor(sys, 1)
	sys.Do(1, func(*core.Daemon) { eng.Send(1, 0, advance(1)) })
	if err := sys.Inject(1, "slow", nil); err != nil {
		t.Fatal(err)
	}
	release()
	<-entered
	// Daemon 1's executor is inside the native call and stays there until
	// the frame has arrived.
	waitCommits(t, sys, 1)
}

// TestCloseFlushes: frames an executor sent in its last run reach the socket
// before Close tears the connection down.
func TestCloseFlushes(t *testing.T) {
	sys, eng, met := meteredTCP(t)
	// The connection first: Close refuses new dials.
	sys.Do(1, func(*core.Daemon) { eng.Send(1, 0, advance(1)) })
	waitCommits(t, sys, 1)
	release := holdExecutor(sys, 1)
	sys.Do(1, func(*core.Daemon) {
		eng.Send(1, 0, advance(2))
		eng.Send(1, 0, advance(3))
	})
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	release()
	<-closed
	if f, w := met.CounterValue("transport.frames"), met.CounterValue("transport.writes"); f != 3 || w != 2 {
		t.Errorf("after Close: transport.frames = %d, transport.writes = %d, want 3 and 2", f, w)
	}
	if errs := eng.errs.List(); len(errs) != 0 {
		t.Errorf("transport errors: %v", errs)
	}
}

// TestKillDaemonDropsBufferedFrames: frames waiting in a connection's writer
// when either end is killed vanish with the connection, without a write and
// without an error, like frames in a dead process's socket queue.
func TestKillDaemonDropsBufferedFrames(t *testing.T) {
	sys, eng, met := meteredTCP(t)
	release := holdExecutor(sys, 1)
	sent, gate := make(chan struct{}), make(chan struct{})
	sys.Do(1, func(*core.Daemon) {
		eng.Send(1, 0, advance(1))
		close(sent)
	})
	// A second hold keeps the executor from running dry, and flushing,
	// between the send and the kill.
	sys.Do(1, func(*core.Daemon) { <-gate })
	release()
	<-sent
	eng.KillDaemon(0)
	close(gate)
	// The executor has run dry, and flushed, by the time a later item runs.
	ran := make(chan struct{})
	sys.Do(1, func(*core.Daemon) { close(ran) })
	<-ran
	if f, w := met.CounterValue("transport.frames"), met.CounterValue("transport.writes"); f != 1 || w != 0 {
		t.Errorf("transport.frames = %d, transport.writes = %d, want 1 and 0", f, w)
	}
	if got := sys.CommitLog(); len(got) != 0 {
		t.Errorf("a frame to a killed daemon was delivered: %v", got)
	}
	if errs := eng.errs.List(); len(errs) != 0 {
		t.Errorf("dropping on purpose produced errors: %v", errs)
	}
}

// TestOffExecutorFramesFlushAtOnce: heartbeats come from the ticker's
// goroutine and fault-delayed frames (duplicated or not) from a timer's;
// neither has an executor run to end, so both are on the wire when their
// write returns, even while the sending daemon's executor is busy.
func TestOffExecutorFramesFlushAtOnce(t *testing.T) {
	sys, eng, met := meteredTCP(t)
	release := holdExecutor(sys, 1)
	defer release()

	eng.Send(1, 0, &core.Msg{Kind: core.MsgHeartbeat, From: 1})
	if f, w := met.CounterValue("transport.frames"), met.CounterValue("transport.writes"); f != 1 || w != 1 {
		t.Fatalf("heartbeat: transport.frames = %d, transport.writes = %d on return from Send, want 1 and 1", f, w)
	}

	eng.SetFaultHook(func(int64, int, int, int) faults.Verdict {
		return faults.Verdict{Delay: int64(5 * time.Millisecond), Dup: true}
	})
	eng.Send(1, 0, advance(1))
	eng.SetFaultHook(nil)
	// Daemon 1's executor is still held: only the timer's own flush can
	// have delivered this.
	waitCommits(t, sys, 1)
	if f, w := met.CounterValue("transport.frames"), met.CounterValue("transport.writes"); f != 3 || w != 2 {
		t.Errorf("delayed and duplicated: transport.frames = %d, transport.writes = %d, want 3 and 2 (both copies in one write)", f, w)
	}
}

// TestRedialLosesNothingAcknowledged: under recovery, frames that were
// waiting in a connection's writer when the connection was dropped are
// simply unacknowledged, and come again over the redialled one. Connections
// are torn down under a walk that is running; every hop must still take
// effect exactly once.
func TestRedialLosesNothingAcknowledged(t *testing.T) {
	const walkers, hops = 4, 400
	sys, eng, _ := meteredTCP(t, core.WithRecovery(core.RecoveryConfig{AckTimeout: 5 * sim.Millisecond}))
	ringOf2(t, sys, scalarWalker)
	for i := 0; i < walkers; i++ {
		if err := sys.InjectAt(i%2, "walker", fmt.Sprintf("r%d", i%2), map[string]value.Value{"hops": value.Int(hops)}); err != nil {
			t.Fatal(err)
		}
	}
	stop, dropped := make(chan struct{}), make(chan int)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				dropped <- i
				return
			case <-time.After(200 * time.Microsecond):
				eng.dropConn(i%2, 1-i%2)
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("no quiescence (live=%d, transport errs=%v)", sys.Live(), eng.errs.List())
	}
	close(stop)
	if n := <-dropped; n < 5 {
		t.Errorf("the walk ended after %d drops: too short to prove anything", n)
	}
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
	if got := visits(sys); got != walkers*hops {
		t.Errorf("node.visits sum to %d, want %d: a hop was lost or took effect twice", got, walkers*hops)
	}
}

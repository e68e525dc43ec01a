package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/faults"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/value"
	"messengers/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{7}, 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame corrupted: %d vs %d bytes", len(got), len(want))
		}
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short header should fail")
	}
	bad := []byte{0xff, 0xff, 0, 0, 1, 0, 0, 0, 9}
	if _, err := ReadFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadFrame(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated body should fail")
	}
}

// tcpSystem builds an n-daemon system over loopback TCP. MSGR_DIST_GVT=1
// reruns the whole suite under the ring-reduction GVT protocol (prepended
// so a test's explicit options win).
func tcpSystem(t *testing.T, n int, opts ...core.Option) (*core.System, *TCPEngine) {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	eng, err := NewTCPEngine(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	if os.Getenv("MSGR_DIST_GVT") == "1" {
		opts = append([]core.Option{core.WithDistributedGVT()}, opts...)
	}
	sys := core.NewSystem(eng, core.FullMesh(n), opts...)
	return sys, eng
}

func waitQuiesce(t *testing.T, sys *core.System, eng *TCPEngine) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("no quiescence (live=%d, transport errs=%v)", sys.Live(), eng.errs.List())
	}
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
	for _, err := range eng.errs.List() {
		t.Errorf("transport error: %v", err)
	}
}

func TestManagerWorkerOverTCP(t *testing.T) {
	const nDaemons = 4
	const nTasks = 25
	sys, eng := tcpSystem(t, nDaemons)

	sys.RegisterNative("next_task", func(ctx *core.NativeCtx, _ []value.Value) (value.Value, error) {
		next := ctx.NodeVar("next").AsInt()
		if next >= nTasks {
			return value.Nil(), nil
		}
		ctx.SetNodeVar("next", value.Int(next+1))
		return value.Int(next), nil
	})
	sys.RegisterNative("compute", func(_ *core.NativeCtx, args []value.Value) (value.Value, error) {
		return value.Int(args[0].AsInt() * 7), nil
	})
	sys.RegisterNative("deposit", func(ctx *core.NativeCtx, args []value.Value) (value.Value, error) {
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
	waitQuiesce(t, sys, eng)

	got := make(chan int64, 1)
	sys.Do(0, func(d *core.Daemon) { got <- d.Store().Init().Vars["acc"].AsInt() })
	var want int64
	for i := int64(0); i < nTasks; i++ {
		want += i * 7
	}
	if v := <-got; v != want {
		t.Errorf("acc = %d, want %d", v, want)
	}
}

func TestGVTOverTCP(t *testing.T) {
	sys, eng := tcpSystem(t, 3, core.WithGVTInterval(sim.Millisecond))
	prog, err := compile.Compile("tick", `
		for (k = 0; k < 4; k++) {
			sched_abs(k * 1.0 + phase);
			print(tag, k);
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)
	inj := func(d int, tag string, phase float64) {
		t.Helper()
		err := sys.Inject(d, "tick", map[string]value.Value{
			"tag": value.Str(tag), "phase": value.Num(phase),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Injection is not in the GVT books, so daemon 0, where rounds start, is
	// held until both tickers are suspended: a daemon has run its inject
	// once a first barrier returns, and the suspension that queued once a
	// second one does.
	release := holdExecutor(sys, 0)
	inj(1, "A", 0.1)
	inj(2, "B", 0.6)
	for _, d := range []int{1, 2, 1, 2} {
		ran := make(chan struct{})
		sys.Do(d, func(*core.Daemon) { close(ran) })
		<-ran
	}
	release()
	waitQuiesce(t, sys, eng)
	out := sys.Output()
	if len(out) != 8 {
		t.Fatalf("output = %v", out)
	}
	for i, line := range out {
		want := "A"
		if i%2 == 1 {
			want = "B"
		}
		if !strings.HasPrefix(line, want) {
			t.Errorf("line %d = %q, want prefix %q (GVT order broke over TCP)", i, line, want)
		}
	}
}

func TestAddrsAndDoubleClose(t *testing.T) {
	eng, err := NewTCPEngine([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrs := eng.Addrs()
	if len(addrs) != 2 || addrs[0] == addrs[1] {
		t.Errorf("addrs = %v", addrs)
	}
	eng.Close()
	eng.Close() // idempotent
}

func TestListenFailure(t *testing.T) {
	if _, err := NewTCPEngine([]string{"256.256.256.256:1"}); err == nil {
		t.Error("bad address should fail")
	}
}

func TestGarbageConnectionIsRejected(t *testing.T) {
	// A rogue peer sending noise must not crash the engine or corrupt a
	// running system.
	sys, eng := tcpSystem(t, 2)
	addr := eng.Addrs()[1]

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("definitely not a frame")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A valid hello followed by a garbage frame body.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn2, eng.hello(0)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn2, []byte("garbage message payload")); err != nil {
		t.Fatal(err)
	}
	conn2.Close()

	// The system must still work end to end.
	prog, err := compile.Compile("ok", `
		create(ALL);
		hop(ll = $last);
		node.done = node.done + 1;
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)
	if err := sys.Inject(0, "ok", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		sys.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("system wedged after garbage connection")
	}
	for _, err := range sys.Errors() {
		t.Errorf("runtime error: %v", err)
	}
	result := make(chan int64, 1)
	sys.Do(0, func(d *core.Daemon) { result <- d.Store().Init().Vars["done"].AsInt() })
	if got := <-result; got != 1 {
		t.Errorf("done = %d", got)
	}
}

func TestZeroLengthFrame(t *testing.T) {
	// An empty payload is a legal frame: header only, body absent. Both nil
	// and empty-slice spellings must round-trip and not desync the stream.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, []byte{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, []byte{42}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != 0 {
			t.Errorf("frame %d: %d bytes, want empty", i, len(got))
		}
	}
	got, err := ReadFrame(&buf)
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Errorf("stream desynced after empty frames: %v %v", got, err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	// A header advertising more than wire.MaxFrame must be rejected before any
	// allocation, not after attempting to read gigabytes.
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[0:], wire.FrameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], wire.MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame: %v", err)
	}
	// Exactly wire.MaxFrame is allowed through to the body read (which then
	// fails on the empty reader, proving the limit check passed).
	binary.LittleEndian.PutUint32(hdr[4:], wire.MaxFrame)
	_, err = ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("frame at the limit should pass the size check: %v", err)
	}
}

func TestMidFrameConnectionClose(t *testing.T) {
	// A peer dying mid-frame must surface as a read error on the live side,
	// never a short frame silently handed to the decoder.
	client, server := net.Pipe()
	go func() {
		var hdr [8]byte
		binary.LittleEndian.PutUint16(hdr[0:], wire.FrameMagic)
		binary.LittleEndian.PutUint32(hdr[4:], 100)
		client.Write(hdr[:])
		client.Write(make([]byte, 10)) // 10 of the promised 100 bytes
		client.Close()
	}()
	if _, err := ReadFrame(server); err == nil {
		t.Error("mid-frame close should fail the read")
	}
	server.Close()

	// Close between the header and the body of the NEXT frame: the first
	// frame reads fine, the second errors.
	client2, server2 := net.Pipe()
	go func() {
		WriteFrame(client2, []byte("whole frame"))
		var hdr [8]byte
		binary.LittleEndian.PutUint16(hdr[0:], wire.FrameMagic)
		binary.LittleEndian.PutUint32(hdr[4:], 5)
		client2.Write(hdr[:])
		client2.Close()
	}()
	if got, err := ReadFrame(server2); err != nil || string(got) != "whole frame" {
		t.Fatalf("first frame: %q, %v", got, err)
	}
	if _, err := ReadFrame(server2); err == nil {
		t.Error("headerless body should fail the read")
	}
	server2.Close()
}

func TestTCPTraceEvents(t *testing.T) {
	// A traced TCP run must record the wire activity (net.send / net.recv
	// with byte counts) interleaved with the messenger lifecycle events the
	// daemons emit on the same tracer.
	tr := obs.NewTracer()
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	eng, err := NewTCPEngine(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	eng.SetTracer(tr)
	sys := core.NewSystem(eng, core.FullMesh(2), core.WithTracer(tr))

	prog, err := compile.Compile("hopper", `
		create(ALL);
		hop(ll = $last);
		node.done = 1;
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)
	if err := sys.Inject(0, "hopper", nil); err != nil {
		t.Fatal(err)
	}
	waitQuiesce(t, sys, eng)

	count := func(name string) (n int) {
		for _, e := range tr.Events() {
			if e.Name == name {
				n++
			}
		}
		return
	}
	sends, recvs := count("net.send"), count("net.recv")
	if sends == 0 || recvs == 0 {
		t.Fatalf("net.send = %d, net.recv = %d, want both > 0", sends, recvs)
	}
	// Loopback delivers everything that was sent.
	if sends != recvs {
		t.Errorf("net.send = %d but net.recv = %d", sends, recvs)
	}
	for _, name := range []string{"inject", "create.depart", "hop.depart", "hop.arrive", "terminate"} {
		if count(name) == 0 {
			t.Errorf("traced TCP run has no %q event", name)
		}
	}
	for _, e := range tr.Events() {
		if e.Name != "net.send" && e.Name != "net.recv" {
			continue
		}
		ok := false
		for _, f := range e.Args {
			if f.Key == "bytes" && f.Int() > 0 {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("%s event missing positive bytes arg: %+v", e.Name, e.Args)
		}
	}
}

// TestConcurrentSendClose hammers Send from many goroutines while Close
// runs, exercising the executor-drain-then-network teardown order under the
// race detector.
func TestConcurrentSendClose(t *testing.T) {
	for round := 0; round < 3; round++ {
		_, eng := tcpSystem(t, 3)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					eng.Send(g%3, (g+1+i)%3, &core.Msg{Kind: core.MsgHeartbeat, From: g % 3})
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		eng.Close()
		close(stop)
		wg.Wait()
	}
}

// TestCloseDrainsExecutors: work queued on an executor before Close must
// finish before Close returns (the executors drain before the network is
// torn down).
func TestCloseDrainsExecutors(t *testing.T) {
	sys, eng := tcpSystem(t, 2)
	var ran atomic.Bool
	sys.Do(0, func(*core.Daemon) {
		time.Sleep(50 * time.Millisecond)
		// The network must still be up: a send from inside drained work
		// goes out rather than erroring.
		eng.Send(0, 1, &core.Msg{Kind: core.MsgHeartbeat, From: 0})
		ran.Store(true)
	})
	eng.Close()
	if !ran.Load() {
		t.Error("Close returned before queued executor work drained")
	}
}

// TestErrorRingBounded: the transport error log is a bounded ring that
// keeps the newest errors and counts evictions.
func TestErrorRingBounded(t *testing.T) {
	const maxErrors = 64 // core.ErrorLog's bound
	_, eng := tcpSystem(t, 1)
	m := obs.NewMetrics()
	eng.SetMetrics(m)
	for i := 0; i < maxErrors+50; i++ {
		eng.errs.Add(fmt.Errorf("err %d", i))
	}
	errs := eng.errs.List()
	if len(errs) != maxErrors {
		t.Fatalf("retained %d errors, want %d", len(errs), maxErrors)
	}
	if got := errs[0].Error(); got != "err 50" {
		t.Errorf("oldest retained = %q, want err 50", got)
	}
	if got := errs[len(errs)-1].Error(); got != fmt.Sprintf("err %d", maxErrors+49) {
		t.Errorf("newest retained = %q", got)
	}
	if m.CounterValue("transport.errors.dropped") != 50 {
		t.Errorf("dropped counter = %d, want 50", m.CounterValue("transport.errors.dropped"))
	}
}

// TestHeartbeatDetectsKillAndRevive: killing a daemon makes the survivors'
// failure detector fire PeerDown; reviving it brings heartbeats back and
// fires PeerUp.
func TestHeartbeatDetectsKillAndRevive(t *testing.T) {
	metrics := obs.NewMetrics()
	sys, eng := tcpSystem(t, 2,
		core.WithMetrics(metrics), core.WithRecovery(core.RecoveryConfig{}))
	_ = sys
	eng.StartHeartbeats(5*time.Millisecond, 30*time.Millisecond)

	waitCounter := func(name string, want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for metrics.CounterValue(name) < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s = %d, want >= %d", name, metrics.CounterValue(name), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	eng.KillDaemon(1)
	waitCounter("net.peer.down", 1)
	if err := eng.ReviveDaemon(1); err != nil {
		t.Fatal(err)
	}
	waitCounter("net.peer.up", 1)
}

// TestDialBackoffAndReconnect: dials to an unreachable peer back off
// instead of hammering, and a successful redial after failures counts as a
// reconnect.
func TestDialBackoffAndReconnect(t *testing.T) {
	_, eng := tcpSystem(t, 2)
	m := obs.NewMetrics()
	eng.SetMetrics(m)

	eng.mu.Lock()
	l := eng.listeners[1]
	eng.mu.Unlock()
	l.Close()
	eng.dropConn(0, 1)

	if _, err := eng.conn(0, 1); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	if _, err := eng.conn(0, 1); err == nil || !strings.Contains(err.Error(), "backing off") {
		t.Fatalf("second dial not in backoff: %v", err)
	}

	l2, err := net.Listen("tcp", eng.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	eng.mu.Lock()
	eng.listeners[1] = l2
	eng.mu.Unlock()
	eng.netWG.Add(1)
	go func() {
		defer eng.netWG.Done()
		eng.acceptLoop(1, l2)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := eng.conn(0, 1); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("redial never succeeded after listener came back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m.CounterValue("net.reconnects") != 1 {
		t.Errorf("reconnects = %d, want 1", m.CounterValue("net.reconnects"))
	}
}

// TestFaultHookDrop: a hook dropping all frames silences the wire without
// errors; clearing it restores delivery.
func TestFaultHookDrop(t *testing.T) {
	var dropped atomic.Int64
	_, eng := tcpSystem(t, 2)
	eng.SetFaultHook(func(now int64, src, dst, size int) faults.Verdict {
		dropped.Add(1)
		return faults.Verdict{Drop: true}
	})
	eng.Send(0, 1, &core.Msg{Kind: core.MsgHeartbeat, From: 0})
	if dropped.Load() != 1 {
		t.Fatalf("hook consulted %d times, want 1", dropped.Load())
	}
	if errs := eng.errs.List(); len(errs) != 0 {
		t.Errorf("dropping produced errors: %v", errs)
	}
	eng.SetFaultHook(nil)
	eng.Send(0, 1, &core.Msg{Kind: core.MsgHeartbeat, From: 0})
	if dropped.Load() != 1 {
		t.Error("cleared hook still consulted")
	}
}

// TestCloseClosesAcceptedConnections: a peer that connects and then goes
// quiet, halfway through its hello or after it, holds no reader of the
// engine's open: KillDaemon and Close close the connections the engine
// accepted instead of waiting for the peer to.
func TestCloseClosesAcceptedConnections(t *testing.T) {
	hello := func(eng *TCPEngine) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, eng.hello(0)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, c := range []struct {
		name string
		sent func(*TCPEngine) []byte
	}{
		{"half a hello", func(eng *TCPEngine) []byte { return hello(eng)[:2] }},
		{"idle after a hello", hello},
	} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/kill=%v", c.name, kill), func(t *testing.T) {
				eng, err := NewTCPEngine([]string{"127.0.0.1:0"})
				if err != nil {
					t.Fatal(err)
				}
				conn, err := net.Dial("tcp", eng.Addrs()[0])
				if err != nil {
					eng.Close()
					t.Fatal(err)
				}
				defer conn.Close()
				if _, err := conn.Write(c.sent(eng)); err != nil {
					eng.Close()
					t.Fatal(err)
				}
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					eng.mu.Lock()
					n := len(eng.accepted)
					eng.mu.Unlock()
					if n == 1 {
						break
					}
					if time.Now().After(deadline) {
						eng.Close()
						t.Fatal("the engine never accepted the connection")
					}
				}
				if kill {
					eng.KillDaemon(0)
					conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					if _, err := conn.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
						t.Errorf("after KillDaemon the peer reads %v, want its connection closed", err)
					}
				}
				closed := make(chan struct{})
				go func() {
					eng.Close()
					close(closed)
				}()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Close still waiting after 5s on a connection the peer keeps open")
				}
			})
		}
	}
}

// TestSlowHelloIsDropped: a peer that connects and sends only part of its
// hello (a slow loris) is dropped once the hello deadline passes, instead
// of holding a reader goroutine and its buffer until Close.
func TestSlowHelloIsDropped(t *testing.T) {
	defer func(d time.Duration) { helloTimeout = d }(helloTimeout)
	helloTimeout = 50 * time.Millisecond
	eng, err := NewTCPEngine([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	conn, err := net.Dial("tcp", eng.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello bytes.Buffer
	if err := WriteFrame(&hello, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello.Bytes()[:2]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("a peer stuck in its hello reads %v, want its connection closed", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		eng.mu.Lock()
		n := len(eng.accepted)
		eng.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the engine still tracks %d accepted connections", n)
		}
	}
}

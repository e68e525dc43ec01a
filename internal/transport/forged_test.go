package transport

import (
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/logical"
	"messengers/internal/vm"
	"messengers/internal/wire"
)

// dialAs connects to daemon 1 of eng's system and writes hello, then each
// message as a frame.
func dialAs(t *testing.T, eng *TCPEngine, hello []byte, msgs ...*core.Msg) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", eng.Addrs()[1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := WriteFrame(c, hello); err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		enc := wire.NewEncoder()
		if err := m.EncodeFrame(enc); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(enc.Bytes()); err != nil {
			t.Fatal(err)
		}
		enc.Release()
	}
	return c
}

// refused waits for the engine to close a stranger's connection.
func refused(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("a stranger's connection reads %v, want it closed by the engine", err)
	}
}

// waitErrs waits until the transport has logged n errors.
func waitErrs(t *testing.T, eng *TCPEngine, n int) []error {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if errs := eng.errs.List(); len(errs) >= n {
			return errs
		}
		if time.Now().After(deadline) {
			t.Fatalf("transport errors %v, want %d", eng.errs.List(), n)
		}
	}
}

// TestForgedGVTQueryIsRefused: a GVT query claiming to come from daemon 99
// of a 2-daemon system used to reach answerQuery, whose report to daemon 99
// indexed past the engine's connections and panicked. A stranger's hello
// is refused now, and on a connection with a valid hello a frame from any
// daemon but the hello's is dropped and counted.
func TestForgedGVTQueryIsRefused(t *testing.T) {
	sys, eng := tcpSystem(t, 2)
	query := &core.Msg{Kind: core.MsgGVTQuery, From: 99, GEpoch: 1}
	refused(t, dialAs(t, eng, []byte{0}, query))

	dialAs(t, eng, eng.hello(0), query)
	errs := waitErrs(t, eng, 1)
	if !strings.Contains(errs[0].Error(), "from daemon 99 on daemon 0's connection") {
		t.Errorf("transport error %q, want the forged sender named", errs[0])
	}
	if got := atomic.LoadInt64(&sys.Daemon(1).Stats.GVTCtlMsgs); got != 0 {
		t.Errorf("daemon 1 answered a forged query: %d control messages sent", got)
	}
}

// TestForgedMessengerIsRefused: a well-formed Messenger frame from a
// stranger used to run on an idle system and end with a liveness slot it
// never took ("live work count went negative"). A stranger's hello is
// refused now, so the Messenger never arrives.
func TestForgedMessengerIsRefused(t *testing.T) {
	sys, eng := tcpSystem(t, 2)
	prog, err := compile.Compile("stray", `x = 1;`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(prog)
	snap, err := vm.New(prog, nil).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	init := make(chan logical.NodeID, 1)
	sys.Do(1, func(d *core.Daemon) { init <- d.Store().Init().ID })
	msg := &core.Msg{Kind: core.MsgMessenger, From: 0, HopSeq: 0,
		ProgHash: prog.Hash(), Snapshot: snap, MsgrID: 7, DestNode: <-init}
	refused(t, dialAs(t, eng, []byte{0}, msg))
	done := make(chan struct{})
	sys.Do(1, func(*core.Daemon) { close(done) })
	<-done
	if got := atomic.LoadInt64(&sys.Daemon(1).Stats.Arrived); got != 0 {
		t.Errorf("a stranger's Messenger arrived (%d)", got)
	}
}

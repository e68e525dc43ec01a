package transport

import (
	"bytes"
	"sync"
	"testing"

	"messengers/internal/core"
	"messengers/internal/value"
	"messengers/internal/vm"
)

// snapshotTap wraps an engine and records the snapshot of every departing
// Messenger at Send time, before the engine serialises or hands over its VM,
// and which VMs the departures were in.
type snapshotTap struct {
	core.Engine
	t     *testing.T
	mu    sync.Mutex
	snaps [][]byte
	vms   map[*vm.VM]bool
}

func (e *snapshotTap) Send(src, dst int, msg *core.Msg) {
	if msg.Kind == core.MsgMessenger && msg.XferVM != nil {
		snap, err := msg.XferVM.Snapshot()
		if err != nil {
			e.t.Errorf("snapshot at send: %v", err)
		}
		e.mu.Lock()
		e.snaps = append(e.snaps, snap)
		e.vms[msg.XferVM] = true
		e.mu.Unlock()
	}
	e.Engine.Send(src, dst, msg)
}

func (e *snapshotTap) Bind(daemons []*core.Daemon) {
	e.Engine.(interface{ Bind([]*core.Daemon) }).Bind(daemons)
}

// recyclingWalker hops from its main body and from inside a call (two
// frames and a pending operand aboard), and when rich also carries a string
// that grows and resets, an array and a matrix that change every hop.
const recyclingWalker = `
	func via(k) {
		t = k * 2;
		hop(ll = "ring", ldir = +);
		return t + 1;
	}
	for (k = 0; k < hops; k++) {
		node.visits = node.visits + 1;
		acc = acc + k * 0.5;
		if (rich) {
			arr[k % 4] = k;
			if (k % 7 == 0) { tag = tag + "x"; }
			if (k % 50 == 0) { tag = ""; }
			d = k % n;
			matset(blk, d, d, matget(blk, d, d) + 1.0);
		}
		if (k % 3 == 0) {
			s = s + via(k);
		} else {
			hop(ll = "ring", ldir = +);
		}
	}`

// walkBothWays runs a rich walker and then, over the berths it left, a lean
// one with a third of the variables; one Messenger at a time, so the order
// of departures is the same on every engine.
func walkBothWays(t *testing.T, sys *core.System, wait func()) {
	t.Helper()
	const hops, n = 1000, 4
	ringOf2(t, sys, recyclingWalker)
	rich := map[string]value.Value{
		"hops": value.Int(hops), "rich": value.Int(1), "n": value.Int(n), "acc": value.Num(0), "s": value.Int(0),
		"tag": value.Str(""), "blk": value.Matrix(value.NewMat(n, n)),
		"arr": value.Arr([]value.Value{value.Int(0), value.Int(0), value.Int(0), value.Int(0)}),
	}
	lean := map[string]value.Value{"hops": value.Int(hops), "rich": value.Int(0), "acc": value.Num(0), "s": value.Int(0)}
	for _, vars := range []map[string]value.Value{rich, lean} {
		if err := sys.InjectAt(0, "walker", "r0", vars); err != nil {
			t.Fatal(err)
		}
		wait()
	}
	if got := visits(sys); got != 2*hops {
		t.Errorf("node.visits sum to %d, want %d", got, 2*hops)
	}
}

// TestRecycledRestoreMatchesChanEngine is the differential for berths: on
// the chan engine the VM itself travels and nothing is ever restored; on the
// TCP engine every arrival is restored into the berth an earlier departure
// left. Over 2000 hops the snapshot of every departure must be byte-equal on
// both, so a berth never adds to, drops from or reorders what a Messenger
// carries.
func TestRecycledRestoreMatchesChanEngine(t *testing.T) {
	chanEng := core.NewChanEngine(2)
	defer chanEng.Close()
	want := &snapshotTap{Engine: chanEng, t: t, vms: map[*vm.VM]bool{}}
	chanSys := core.NewSystem(want, core.FullMesh(2))
	walkBothWays(t, chanSys, chanSys.Wait)
	for _, err := range chanSys.Errors() {
		t.Fatalf("chan engine: %v", err)
	}

	tcpEng, err := NewTCPEngine([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpEng.Close()
	got := &snapshotTap{Engine: tcpEng, t: t, vms: map[*vm.VM]bool{}}
	tcpSys := core.NewSystem(got, core.FullMesh(2))
	walkBothWays(t, tcpSys, func() { waitQuiesce(t, tcpSys, tcpEng) })

	if len(want.snaps) != 2000 || len(got.snaps) != len(want.snaps) {
		t.Fatalf("departures: chan engine %d, TCP engine %d, want 2000 each", len(want.snaps), len(got.snaps))
	}
	for i := range want.snaps {
		if !bytes.Equal(got.snaps[i], want.snaps[i]) {
			t.Fatalf("departure %d: restored into a berth the Messenger snapshots to\n%x\non the chan engine to\n%x", i, got.snaps[i], want.snaps[i])
		}
	}
	// The tap keeps every VM it saw alive, so distinct pointers are distinct
	// VMs: 2000 arrivals that each built one would show as about 2000.
	if n := len(got.vms); n > 8 {
		t.Errorf("%d distinct VMs carried the TCP walk's 2000 departures: arrivals are not moving into berths", n)
	}
}

package messengers

// Microbenchmarks of the wire layer: what one hop costs on the real
// (in-process) engine and what encoding one Messenger-carrying message
// costs. Run with -benchmem; the allocs/op of BenchmarkWireHop is the
// headline number the pooled wire layer is accountable to.

import (
	"testing"

	"messengers/internal/core"
	"messengers/internal/value"
	"messengers/internal/vm"
)

func benchHopMsg(mvm *vm.VM, snap []byte) *core.Msg {
	return &core.Msg{
		Kind:     core.MsgMessenger,
		From:     0,
		ProgHash: mvm.Program().Hash(),
		Snapshot: snap,
		MsgrID:   1,
		LVT:      1.5,
		DestNode: 7,
		Last:     "x",
	}
}

// wireBenchMsg builds a realistic Messenger-carrying message: a VM paused
// mid-hop with a 64x64 matrix payload in its variable area.
func wireBenchVM(b *testing.B) (*vm.VM, []byte) {
	b.Helper()
	prog, err := compileBench("wirebench", `
		blk = payload;
		hop(ll = "x");
		y = 1;
	`)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(prog, map[string]value.Value{"payload": value.Matrix(value.NewMat(64, 64))})
	if _, err := m.Run(discardHost{}, 0); err != nil {
		b.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return m, snap
}

// BenchmarkWireEncode measures serializing one Messenger-carrying message
// to wire bytes (snapshot + header fields), the per-message cost of every
// remote hop on the TCP engine and of wire-size accounting everywhere.
func BenchmarkWireEncode(b *testing.B) {
	mvm, snap := wireBenchVM(b)
	msg := benchHopMsg(mvm, snap)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(msg.Encode())
	}
	b.SetBytes(int64(n))
}

// BenchmarkWireHop measures the full hop path between two daemons: VM state
// transfer, message construction, delivery, and resumption. allocs/op is
// per round trip (two hops). inproc is the real (goroutine) engine, where
// the VM travels by ownership; tcp_32k carries a 64x64 matrix over loopback
// sockets, so its B/op is what the encode, the pooled inbound frame and the
// restore cost per hop pair — the arriving matrix and little else.
func BenchmarkWireHop(b *testing.B) {
	b.Run("inproc", func(b *testing.B) {
		sys, err := NewRealSystem(Config{Daemons: 2})
		if err != nil {
			b.Fatal(err)
		}
		benchWireHop(b, sys, 16)
	})
	b.Run("tcp_32k", func(b *testing.B) {
		sys, err := NewTCPSystem(Config{Daemons: 2}, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchWireHop(b, sys, 64)
	})
}

func benchWireHop(b *testing.B, sys *System, matN int) {
	defer sys.Close()
	err := sys.BuildNetwork(NetSpec{
		Nodes: []NetNode{{Name: "a", Daemon: 0}, {Name: "b", Daemon: 1}},
		Links: []NetLink{{A: "a", B: "b", Name: "ab"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	err = sys.CompileAndRegister("wirehop", `
		for (i = 0; i < hops; i++) { hop(ll = "ab"); }
	`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = sys.InjectAt(0, "wirehop", "a", map[string]Value{
		"hops":    IntValue(int64(2 * b.N)),
		"payload": MatrixValue(NewMat(matN, matN)),
	})
	if err != nil {
		b.Fatal(err)
	}
	sys.Wait()
	b.StopTimer()
	if errs := sys.Errors(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	if got := sys.TotalStats().RemoteHops; got != int64(2*b.N) {
		b.Fatalf("%d remote hops, want %d", got, 2*b.N)
	}
}

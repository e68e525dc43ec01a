package core

import (
	"testing"

	"messengers/internal/compile"
	"messengers/internal/value"
	"messengers/internal/vm"
)

// TestInboundFrameDeadAfterHandleMsg enforces the lifetime rule the TCP
// transport's pooled frames rest on: a decoded message aliases its frame
// (Snapshot), the transport recycles the frame as soon as HandleMsg
// returns, so the restored Messenger's variables, all that HandleMsg leaves
// behind, may not point into it.
// The frame is scribbled over between HandleMsg and the Messenger's next
// segment; every variable kind that carries a reference must survive. The
// restore runs both ways: into a fresh VM, and into a berth another VM of
// the program left, whose variable area is reused.
func TestInboundFrameDeadAfterHandleMsg(t *testing.T) {
	t.Run("fresh", func(t *testing.T) { inboundFrameDeadAfterHandleMsg(t, false) })
	t.Run("berth", func(t *testing.T) { inboundFrameDeadAfterHandleMsg(t, true) })
}

func inboundFrameDeadAfterHandleMsg(t *testing.T, viaBerth bool) {
	k, sys := simSystem(t, 1)
	err := sys.BuildNetwork(NetSpec{
		Nodes: []NetNode{{Name: "a", Daemon: 0}, {Name: "b", Daemon: 0}},
		Links: []NetLink{{A: "a", B: "b", Name: "ab", Dir: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The local hop ends the segment HandleMsg runs synchronously; the
	// stores happen in a later segment, after the frame is gone.
	prog, err := compile.Compile("carrier", `
		hop(ll = "ab", ldir = +);
		node.s = s; node.b = b; node.a = a; node.m = m;
	`)
	if err != nil {
		t.Fatal(err)
	}
	mat := value.NewMat(3, 5)
	for i := range mat.Data {
		mat.Data[i] = float64(i) + 0.25
	}
	vars := map[string]value.Value{
		"s": value.Str("a string long enough not to be interned"),
		"b": value.Bytes([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}),
		"a": value.Arr([]value.Value{
			value.Str("nested"), value.Bytes([]byte{0xaa, 0xbb}), value.Matrix(mat.Clone()), value.Int(7),
		}),
		"m": value.Matrix(mat),
	}
	want := value.CloneEnv(vars)
	snap, err := vm.New(prog, vars).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := sys.Daemon(0)
	dest := d.Store().FindByName("a")[0].ID
	msgrEnc := (&Msg{Kind: MsgMessenger, ProgHash: prog.Hash(), Snapshot: snap, MsgrID: 42, DestNode: dest}).Encode()

	// An odd prefix keeps the matrix blocks unaligned.
	frame := append([]byte{0}, msgrEnc...)
	msgrMsg, err := DecodeMsg(frame[1:])
	if err != nil {
		t.Fatal(err)
	}

	sys.Register(prog)
	if viaBerth {
		d.ParkVM(vm.New(prog, map[string]value.Value{"s": value.Str("the last occupant"), "z": value.Int(1)}))
	}
	sys.workAdded(1) // the in-flight transfer the sender would have counted
	d.HandleMsg(msgrMsg)
	if viaBerth && len(d.berths) != 0 {
		t.Fatal("the arrival did not take the parked berth")
	}
	for i := range frame {
		frame[i] = 0xff
	}
	runSim(t, k, sys)

	got, ok := sys.ReadNodeVars(0, "b")
	if !ok {
		t.Fatal("node b missing")
	}
	for name, w := range want {
		if !got[name].Equal(w) {
			t.Errorf("variable %s changed after its frame was overwritten:\n got %v\nwant %v", name, got[name], w)
		}
	}
}

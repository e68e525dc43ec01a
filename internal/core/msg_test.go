package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"messengers/internal/bytecode"
	"messengers/internal/logical"
	"messengers/internal/wire"
)

// oneOfEachKind is a message of every kind with every field its body
// carries set, and nothing else, so a field the encoding drops or a field
// of another kind it picks up shows as a difference after a round trip.
func oneOfEachKind() []*Msg {
	transfer := func(k MsgKind) *Msg {
		return &Msg{
			Kind: k, From: 1, HopSeq: 5, AckFloor: 4,
			ProgHash: bytecode.Hash{0xa1, 0xb2}, Snapshot: bytes.Repeat([]byte{7}, 40),
			MsgrID: 42, LVT: 1.5, DestNode: 3, Last: "ring",
			RemoveLink: logical.LinkID{Daemon: 2, Seq: 9}, ProgBytes: []byte("prog"),
			Tenant: "t", Session: 11,
		}
	}
	create := transfer(MsgCreate)
	create.CreateName, create.LinkName, create.LinkDir = "worker", "corridor", 2
	create.LinkID = logical.LinkID{Daemon: 1, Seq: 6}
	create.Origin, create.OriginName = logical.Addr{Daemon: 1, Node: 8}, "init"
	gvt := func(k MsgKind) *Msg {
		return &Msg{Kind: k, From: 2, GEpoch: 7, GMin: 2.5, GSent: 10, GRecv: 9, GVT: 2, GPass: 1}
	}
	return []*Msg{
		transfer(MsgMessenger), create,
		{
			Kind: MsgCreateAck, From: 3, HopSeq: 2, LinkID: logical.LinkID{Daemon: 1, Seq: 6},
			Origin: logical.Addr{Daemon: 1, Node: 8}, AckPeer: logical.Addr{Daemon: 3, Node: 1}, AckPeerName: "worker",
		},
		gvt(MsgGVTNotify), gvt(MsgGVTQuery), gvt(MsgGVTReport), gvt(MsgGVTAdvance),
		{Kind: MsgHopAck, From: 3, MsgrID: 42, HopSeq: 5, AckFloor: 4},
		{Kind: MsgHeartbeat, From: 3, AckFloor: 4},
		gvt(MsgGVTToken),
	}
}

// TestMsgEncodeDecodeRoundTrip: every kind decodes back to the fields it
// was sent with, and a message is a header and its kind's body only, so
// control traffic fits in the 64 bytes WireSize charges it on the
// simulated network (a frame that wrote every kind's fields was 211).
func TestMsgEncodeDecodeRoundTrip(t *testing.T) {
	seen := map[MsgKind]bool{}
	for _, m := range oneOfEachKind() {
		seen[m.Kind] = true
		enc := m.Encode()
		t.Logf("%v: %d bytes", m.Kind, len(enc))
		switch kinds[m.Kind].body {
		case bodyGVT, bodyHopAck, bodyNone:
			if len(enc) > m.WireSize() {
				t.Errorf("%v: %d bytes, more than the %d WireSize charges", m.Kind, len(enc), m.WireSize())
			}
		}
		dec, err := DecodeMsg(enc)
		if err != nil {
			t.Errorf("%v: %v", m.Kind, err)
			continue
		}
		if !reflect.DeepEqual(dec, m) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", m.Kind, dec, m)
		}
	}
	for k := range kinds {
		if kind := MsgKind(k); kinds[kind].body != bodyUnknown && !seen[kind] {
			t.Errorf("no %v in oneOfEachKind", kind)
		}
	}
	if n := unsafe.Sizeof(Msg{}); n > 360 {
		t.Errorf("Msg is %d bytes, want at most 360", n)
	}
	if _, err := DecodeMsg([]byte{1, 2}); err == nil {
		t.Error("truncated message should fail")
	}
}

// TestDecodeMsgRefusesWhatAppendToDoesNotWrite: a kind with no table entry
// (0, the blanks 5 and 10, one past the last) is refused, and so is one
// byte after any kind's body.
func TestDecodeMsgRefusesWhatAppendToDoesNotWrite(t *testing.T) {
	beat := (&Msg{Kind: MsgHeartbeat, From: 1}).Encode()
	for _, k := range []byte{0, 5, 10, byte(MsgGVTToken + 1)} {
		frame := append([]byte{k}, beat[1:]...)
		if _, err := DecodeMsg(frame); err == nil || !strings.Contains(err.Error(), "unknown message kind") {
			t.Errorf("kind %d: err = %v, want an unknown kind", k, err)
		}
	}
	for _, m := range oneOfEachKind() {
		frame := append(m.Encode(), 0)
		if _, err := DecodeMsg(frame); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%v with a byte after its body: err = %v, want trailing bytes refused", m.Kind, err)
		}
	}
}

// localFrames is, for every local kind, a frame that claims it: a bare
// header, and a header with a create's body (what MsgInject carried when
// it had a wire form).
func localFrames(t testing.TB) [][]byte {
	beat := (&Msg{Kind: MsgHeartbeat, From: 1}).Encode()
	create := oneOfEachKind()[1].Encode()
	var frames [][]byte
	n := 0
	for k := range kinds {
		if kinds[k].name == "" || kinds[k].body != bodyUnknown {
			continue
		}
		n++
		for _, f := range [][]byte{beat, create} {
			frames = append(frames, append([]byte{byte(k)}, f[1:]...))
		}
	}
	if n != 11 {
		t.Fatalf("%d local kinds in the table, want 11 (MsgInject and MsgStep..MsgDo)", n)
	}
	return frames
}

// TestLocalKindsNeverTravel: a local kind has a name and no wire form, so
// AppendTo fails on it and DecodeMsg refuses any frame that claims it:
// MsgInject too, which a peer could once send, and whose Messenger then
// ran without a liveness slot.
func TestLocalKindsNeverTravel(t *testing.T) {
	for _, f := range localFrames(t) {
		k := MsgKind(f[0])
		if _, err := DecodeMsg(f); err == nil || !strings.Contains(err.Error(), "unknown message kind") {
			t.Errorf("%v frame of %d bytes: err = %v, want it refused", k, len(f), err)
		}
		e := wire.AppendingTo(nil)
		(&Msg{Kind: k}).AppendTo(e)
		if e.Err() == nil {
			t.Errorf("AppendTo encoded a %v", k)
		}
	}
}

// decoded keeps DecodeMsg's result on the heap, where a caller's would be.
var decoded *Msg

// TestDecodeIntoReusedMsgAllocatesNothing: a control frame decodes into a
// Msg the caller owns without allocating (the TCP reader reuses one per
// connection); DecodeMsg's one allocation is the Msg it returns.
func TestDecodeIntoReusedMsgAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	buf := (&Msg{Kind: MsgGVTToken, From: 2, GEpoch: 7, GMin: 2.5, GSent: 10, GRecv: 9, GVT: 2, GPass: 1}).Encode()
	var m Msg
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Decode into a reused Msg allocated %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if decoded, err = DecodeMsg(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("DecodeMsg allocated %v objects, want 1", n)
	}
}

// TestDecodeLeavesNothingOfTheLastFrame: a hop frame decoded into the Msg
// a create frame was decoded into equals a fresh decode of the hop; none of
// the create's fields survive.
func TestDecodeLeavesNothingOfTheLastFrame(t *testing.T) {
	msgs := oneOfEachKind()
	create, hop := msgs[1], msgs[0]
	var m Msg
	if err := m.Decode(create.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := m.Decode(hop.Encode()); err != nil {
		t.Fatal(err)
	}
	want, err := DecodeMsg(hop.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&m, want) {
		t.Errorf("reused decode = %+v\nwant %+v", m, *want)
	}
}

package core

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"messengers/internal/compile"
	"messengers/internal/vm"
)

// FuzzDecodeMsg: wire input is untrusted; whatever arrives must produce an
// error or a message, never a panic, and a message DecodeMsg accepts is
// exactly the bytes Encode writes for it (one reader for the one writer:
// nothing is skipped, defaulted or left over). The seed corpus is the draws
// of testing/quick the random loop this replaced made (a hundred of them:
// seeds are also the pool mutations start from, and noise must not crowd
// out the real frames), the frames both engines emit
// (testdata/wire_crossengine.txt), one frame of every kind, and frames
// that claim a local kind.
func FuzzDecodeMsg(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v, _ := quick.Value(reflect.TypeOf([]byte(nil)), r)
		f.Add(v.Bytes())
	}
	golden, err := os.ReadFile("../../testdata/wire_crossengine.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		frame, err := hex.DecodeString(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, m := range oneOfEachKind() {
		f.Add(m.Encode())
	}
	for _, frame := range localFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMsg(data)
		if err != nil {
			return
		}
		if again := m.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("DecodeMsg accepted %x, which encodes back as %x", data, again)
		}
	})
}

// TestRestoreNeverPanics: a corrupt snapshot against a valid program must
// fail cleanly.
func TestRestoreNeverPanics(t *testing.T) {
	prog, err := compile.Compile("p", `
		func f(a) { return a + 1; }
		x = f(1);
		hop(ll = "q");
	`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Restore(%d bytes) panicked: %v", len(data), r)
			}
		}()
		_, _ = vm.Restore(prog, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMsgMutationRoundTrips flips bytes in valid encodings: decoding must
// either fail or produce some message, never panic, and valid prefixes of
// re-encoded messages must stay stable.
func TestMsgMutationRoundTrips(t *testing.T) {
	base := (&Msg{
		Kind: MsgMessenger, From: 1, Snapshot: []byte{1, 2, 3, 4},
		MsgrID: 7, LVT: 1.25, DestNode: 3, Last: "row",
	}).Encode()
	f := func(pos uint16, val byte) bool {
		data := make([]byte, len(base))
		copy(data, base)
		data[int(pos)%len(data)] = val
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("mutated decode panicked: %v", r)
			}
		}()
		if m, err := DecodeMsg(data); err == nil && m != nil {
			_ = m.Encode() // re-encoding a decoded message must also be safe
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

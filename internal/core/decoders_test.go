package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/value"
	"messengers/internal/vm"
)

// The decoders of the tree, each as "does this buffer decode": a message, a
// snapshot against its program, and a program. "env" is the snapshot
// decoder again, on a snapshot whose variables the program never
// references, so its forgeries reach the variables that ride along by name.
func fourDecoders(t *testing.T) (prog *bytecode.Program, dec map[string]func([]byte) error, valid map[string][]byte) {
	t.Helper()
	prog = compile.MustCompile("walker", `s = "row"; m = [1, 2.5]; hop(ll = s);`)
	snapshot := func(vars map[string]value.Value) []byte {
		m := vm.New(prog, vars)
		if res, err := m.Run(nil, 0); err != nil || res.Pause != vm.PauseHop {
			t.Fatalf("walker did not reach its hop: %v %v", res.Pause, err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap := snapshot(nil)
	restore := func(b []byte) error { _, err := vm.Restore(prog, b); return err }
	dec = map[string]func([]byte) error{
		"msg":      func(b []byte) error { _, err := DecodeMsg(b); return err },
		"snapshot": restore,
		"program":  func(b []byte) error { _, err := bytecode.Decode(b); return err },
		"env":      restore,
	}
	valid = map[string][]byte{
		"msg":      (&Msg{Kind: MsgMessenger, From: 1, ProgHash: prog.Hash(), Snapshot: snap, Last: "row", Tenant: "t"}).Encode(),
		"snapshot": snap,
		"program":  prog.Encode(),
		"env":      snapshot(map[string]value.Value{"k": value.Int(1), "b": value.Bytes([]byte{1, 2})}),
	}
	return prog, dec, valid
}

// TestDecodersRefuseWhatTheyDoNotConsume: a decoder that is handed a whole
// buffer answers for the whole buffer. A byte after the last field is an
// error in each, and so is a field cut short, including the program's
// source text: that may be absent, not truncated.
func TestDecodersRefuseWhatTheyDoNotConsume(t *testing.T) {
	prog, dec, valid := fourDecoders(t)
	for name, buf := range valid {
		if err := dec[name](buf); err != nil {
			t.Fatalf("%s: the valid encoding is refused: %v", name, err)
		}
		if err := dec[name](append(buf[:len(buf):len(buf)], 0)); err == nil {
			t.Errorf("%s: a trailing byte was accepted", name)
		}
		if err := dec[name](buf[:len(buf)-1]); err == nil {
			t.Errorf("%s: an encoding one byte short was accepted", name)
		}
	}

	enc := valid["program"]
	code := len(enc) - 4 - len(prog.Source) // where the source's length prefix starts
	p, err := bytecode.Decode(enc[:code])
	if err != nil || p.Source != "" || p.Hash() != prog.Hash() {
		t.Errorf("a program that ends after its code must decode with no source: %v", err)
	}
	for _, cut := range []int{code + 1, code + 3, code + 4, len(enc) - 1} {
		if p, err := bytecode.Decode(enc[:cut]); err == nil {
			t.Errorf("source cut at byte %d of %d decoded as %q", cut-code, len(enc)-code, p.Source)
		}
	}
}

// TestForgedCountsAllocateNothing: a count that arrives from outside is held
// to the bytes behind it before anything is sized by it. Every forgery here
// is an error, and refusing it allocates less than 64 bytes per input byte
// plus 64 KiB of slack for the error and whatever else the test binary is
// doing (the smallest of these counts, honoured, is a gigabyte).
func TestForgedCountsAllocateNothing(t *testing.T) {
	prog, dec, valid := fourDecoders(t)
	le := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	tag := func(k value.Kind) []byte { return []byte{byte(k)} }
	forged, ten := le(0xFFFFFFFF), make([]byte, 10)
	msgHead := valid["msg"][:1+4+8+8+len(prog.Hash())] // Kind, From, HopSeq, AckFloor, ProgHash: the snapshot's length is next
	oneVar := cat(le(1, 1), []byte("k"))               // one variable named k, its value next
	oneFrame := le(0, 1, 0, 0)                         // no variables, one frame of main at pc 0, its local count next
	noFuncs := le(0, 0, 0)                             // a nameless program, no constants, no names, the function count next
	oneFunc := cat(noFuncs, le(1, 0, 0, 0))            // one nameless function, its instruction count next
	cases := []struct {
		decoder, name string
		buf           []byte
	}{
		{"msg", "snapshot length", cat(msgHead, forged, ten)},
		{"env", "2^30 entries", cat(le(1<<30), ten)},
		{"env", "key length", cat(le(1), forged, ten)},
		{"env", "string length", cat(oneVar, tag(value.KindStr), forged, ten)},
		{"env", "byte block length", cat(oneVar, tag(value.KindBytes), forged, ten)},
		{"env", "array count", cat(oneVar, tag(value.KindArr), forged, ten)},
		{"env", "matrix 65536x65536", cat(oneVar, tag(value.KindMat), le(65536, 65536), ten)},
		{"env", "matrix 2^30 x 2^30", cat(oneVar, tag(value.KindMat), le(1<<30, 1<<30), ten)},
		{"snapshot", "2^30 variables", cat(le(1<<30), ten)},
		{"snapshot", "frame count", cat(le(0), forged, ten)},
		{"snapshot", "local count", cat(oneFrame, forged, ten)},
		{"snapshot", "stack count", cat(oneFrame, le(0), forged, ten)},
		{"program", "constant count", cat(le(0), forged, ten)},
		{"program", "name count", cat(le(0, 0), forged, ten)},
		{"program", "function count", cat(noFuncs, forged, ten)},
		{"program", "instruction count", cat(oneFunc, forged, ten)},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := dec[c.decoder](c.buf)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "wire: count") {
			t.Errorf("%s, forged %s: err = %v, want the count refused", c.decoder, c.name, err)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(c.buf)+64<<10); grew > bound {
			t.Errorf("%s, forged %s: refusing %d bytes allocated %d (bound %d)", c.decoder, c.name, len(c.buf), grew, bound)
		}
	}
}

// TestDeepNestingIsAnError: 64 MB of one-element arrays (five bytes a
// level) around a variable's value, or around a program constant, is a
// frame a peer can send. DecodeMsg plus RestoreInto, and bytecode.Decode,
// must refuse it with the nesting error; an unbounded recursion would
// overflow the goroutine stack instead, which kills the process.
func TestDeepNestingIsAnError(t *testing.T) {
	levels := bytes.Repeat([]byte{byte(value.KindArr), 1, 0, 0, 0}, (64<<20)/5)
	// Both encodings below put the value to wrap at byte 9: after a count
	// and the one-byte key "k" in the snapshot's variables, after the
	// one-byte name "n" and the constant count in the program.
	wrap := func(enc []byte) []byte { return bytes.Join([][]byte{enc[:9], levels, enc[9:]}, nil) }
	nested := func(err error) bool { return err != nil && strings.Contains(err.Error(), "nested deeper than") }

	prog, _, _ := fourDecoders(t)
	m := vm.New(prog, map[string]value.Value{"k": value.Nil()})
	if res, err := m.Run(nil, 0); err != nil || res.Pause != vm.PauseHop {
		t.Fatalf("walker did not reach its hop: %v %v", res.Pause, err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	frame := (&Msg{Kind: MsgMessenger, ProgHash: prog.Hash(), Snapshot: wrap(snap)}).Encode()
	msg, err := DecodeMsg(frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.RestoreInto(nil, prog, msg.Snapshot); !nested(err) {
		t.Errorf("RestoreInto of a 64 MB nested variable: err = %v", err)
	}

	one := &bytecode.Program{Name: "n", Consts: []value.Value{value.Nil()},
		Funcs: []bytecode.FuncInfo{{Name: "<main>", Code: []bytecode.Instr{{Op: bytecode.OpEnd}}}}}
	if _, err := bytecode.Decode(wrap(one.Encode())); !nested(err) {
		t.Errorf("Decode of a 64 MB nested constant: err = %v", err)
	}
}

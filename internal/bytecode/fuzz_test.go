package bytecode

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"messengers/internal/value"
)

// FuzzProgramDecode: program bytes may come from outside (a file, the A4
// code-carrying mode); garbage must error, not panic or balloon
// allocations, and what Decode accepts is verified, hashes and disassembles,
// and is exactly the bytes Encode writes for it. The seed corpus is the
// draws of testing/quick the random loop this replaced made (a hundred of
// them, so that noise does not crowd the programs out of the mutation pool)
// plus real programs: the hand-built sample, the compiled one
// internal/compile pins, and the sample with a constant at the nesting
// limit and one level past it.
func FuzzProgramDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v, _ := quick.Value(reflect.TypeOf([]byte(nil)), r)
		f.Add(v.Bytes())
	}
	f.Add(sampleProgram().Encode())
	// A constant nested exactly value.MaxDepth arrays deep, and the same
	// program with one array more around it: the fuzzer starts on both
	// sides of the nesting guard.
	nested := value.Nil()
	for i := 0; i < value.MaxDepth; i++ {
		nested = value.Arr([]value.Value{nested})
	}
	deep := sampleProgram()
	deep.Consts = append(deep.Consts, nested)
	atLimit := deep.Encode()
	inner, _ := value.Append(nil, nested)
	at := bytes.Index(atLimit, inner)
	f.Add(atLimit)
	f.Add(bytes.Join([][]byte{atLimit[:at], {byte(value.KindArr), 1, 0, 0, 0}, atLimit[at:]}, nil))
	pinned, err := os.ReadFile("../compile/testdata/pinned_program.txt")
	if err != nil {
		f.Fatal(err)
	}
	enc, err := hex.DecodeString(strings.TrimSpace(string(pinned[bytes.LastIndexByte(pinned, ' ')+1:])))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if !p.Verified() {
			t.Fatal("Decode returned an unverified program")
		}
		_ = p.Hash()
		_ = p.Disassemble()
		// A program that stops after its code decodes with no source and
		// encodes with an empty one.
		if again := p.Encode(); !bytes.Equal(again, data) && !bytes.Equal(again, append(data[:len(data):len(data)], 0, 0, 0, 0)) {
			t.Fatalf("Decode accepted %x, which encodes back as %x", data, again)
		}
	})
}

// TestDecodeMutatedPrograms flips bytes in a valid encoding.
func TestDecodeMutatedPrograms(t *testing.T) {
	base := sampleProgram().Encode()
	f := func(pos uint16, val byte) bool {
		data := make([]byte, len(base))
		copy(data, base)
		data[int(pos)%len(data)] = val
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("mutated Decode panicked: %v", r)
			}
		}()
		if p, err := Decode(data); err == nil && p != nil {
			_ = p.Hash()
			_ = p.Disassemble()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

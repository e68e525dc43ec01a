package bytecode

import (
	"testing"
	"testing/quick"
)

// TestDecodeNeverPanics: program bytes may come from outside (a file, the
// A4 code-carrying mode); garbage must error, not panic or balloon
// allocations.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode(%d bytes) panicked: %v", len(data), r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
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

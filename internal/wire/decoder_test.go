package wire

import (
	"bytes"
	"math"
	"testing"
)

// TestDecoderReadsWhatEncoderWrites: one of each field through the writer
// and back through the reader, to the last byte.
func TestDecoderReadsWhatEncoderWrites(t *testing.T) {
	e := AppendingTo(nil)
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 63)
	e.F64(math.Inf(-1))
	e.F64s([]float64{1.5, math.Copysign(0, -1)})
	e.Raw([]byte{9, 8, 7})
	e.Str("row")
	e.Blob([]byte("payload"))
	e.Blob(nil)
	e.U32(2) // a count of two one-byte elements
	e.U8(1)
	e.U8(2)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	d := NewDecoder(e.Bytes())
	fs, raw := make([]float64, 2), make([]byte, 3)
	if d.U8() != 7 || d.U32() != 0xdeadbeef || d.U64() != 1<<63 || d.F64() != math.Inf(-1) {
		t.Error("scalars differ")
	}
	d.F64s(fs)
	d.Raw(raw)
	if fs[0] != 1.5 || !math.Signbit(fs[1]) || !bytes.Equal(raw, []byte{9, 8, 7}) {
		t.Errorf("blocks differ: %v %v", fs, raw)
	}
	if s := d.Str(); s != "row" {
		t.Errorf("Str = %q", s)
	}
	blob := d.Blob()
	if string(blob) != "payload" || cap(blob) != len(blob) || &blob[0] != &e.Bytes()[d.pos-len(blob)] {
		t.Errorf("Blob = %q (cap %d): want a capped alias of the buffer", blob, cap(blob))
	}
	if empty := d.Blob(); empty != nil {
		t.Errorf("empty Blob = %v, want nil", empty)
	}
	if n := d.Count(1); n != 2 || d.U8() != 1 || d.U8() != 2 {
		t.Errorf("Count = %d", n)
	}
	if err := d.Finish(); err != nil || d.Remaining() != 0 {
		t.Errorf("Finish = %v with %d left", err, d.Remaining())
	}
}

// TestDecoderErrorSticks: the first short read fails the decoder where it
// stands, later reads return zero without moving it, and Finish alone is
// what objects to bytes left over.
func TestDecoderErrorSticks(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3, 4, 5})
	if d.U32() != 0x04030201 || d.Err() != nil {
		t.Fatal("first read should succeed")
	}
	if d.U32() != 0 || d.Err() == nil || d.pos != 4 {
		t.Fatalf("short read: err %v at %d", d.Err(), d.pos)
	}
	first := d.Err()
	if d.U8() != 0 || d.Str() != "" || d.Blob() != nil || d.Count(0) != 0 || d.pos != 4 || d.Err() != first {
		t.Error("reads after the first error must return zero and leave the decoder as it was")
	}
	if d.Finish() != first {
		t.Error("Finish must report the first error, not the trailing byte")
	}

	d = NewDecoder([]byte{1, 2})
	d.U8()
	if d.Err() != nil || d.Finish() == nil || d.Err() == nil {
		t.Error("Finish must refuse, and record, a trailing byte")
	}
}

// TestCountRefusesWhatCannotFit: a count is held to the bytes that are
// left, per element, and to MaxLen, before its caller sizes anything by it.
func TestCountRefusesWhatCannotFit(t *testing.T) {
	le := func(n uint32, tail int) []byte {
		return append([]byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}, make([]byte, tail)...)
	}
	for _, c := range []struct {
		name     string
		buf      []byte
		min, get int
		ok       bool
	}{
		{"fits exactly", le(3, 12), 4, 3, true},
		{"one byte short", le(3, 11), 4, 0, false},
		{"forged", le(0xFFFFFFFF, 10), 1, 0, false},
		{"free elements are still held to MaxLen", le(MaxLen+1, 0), 0, 0, false},
		{"free elements within MaxLen", le(MaxLen, 0), 0, MaxLen, true},
		{"no count at all", []byte{1, 0}, 1, 0, false},
	} {
		d := NewDecoder(c.buf)
		if got := d.Count(c.min); got != c.get || (d.Err() == nil) != c.ok {
			t.Errorf("%s: Count(%d) = %d, err %v", c.name, c.min, got, d.Err())
		}
	}
}

// FuzzDecoder drives the reader with a script of reads over an arbitrary
// buffer. Whatever the two hold: no read panics, the cursor never passes
// the end or goes back, a count never promises more than is left, a blob
// is a capped window of the buffer, and from the first error on every read
// returns zero and moves nothing.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 6, 7}, []byte{1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 1, 8, 4, 7, 7}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{4, 3, 5, 2, 6}, append(make([]byte, 24), 2, 0, 0, 0, 'h', 'i'))
	f.Add([]byte{7, 7, 7}, []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script, buf []byte) {
		d := NewDecoder(buf)
		arg := func(i *int, mod int) int {
			*i++
			if *i >= len(script) {
				return 0
			}
			return int(script[*i]) % mod
		}
		for i := 0; i < len(script); i++ {
			before, failed := d.pos, d.Err() != nil
			zero := true
			switch script[i] % 9 {
			case 0:
				zero = d.U8() == 0
			case 1:
				zero = d.U32() == 0
			case 2:
				zero = d.U64() == 0
			case 3:
				zero = d.F64() == 0
			case 4:
				dst := make([]float64, arg(&i, 16))
				d.F64s(dst)
				for _, v := range dst {
					zero = zero && v == 0
				}
			case 5:
				dst := make([]byte, arg(&i, 64))
				d.Raw(dst)
				zero = bytes.Equal(dst, make([]byte, len(dst)))
			case 6:
				zero = d.Str() == ""
			case 7:
				b := d.Blob()
				zero = b == nil
				if len(b) > 0 && (cap(b) != len(b) || &b[0] != &buf[d.pos-len(b)]) {
					t.Fatalf("Blob is not a capped window of the buffer: len %d cap %d", len(b), cap(b))
				}
			case 8:
				min := arg(&i, 17)
				n := d.Count(min)
				zero = n == 0
				if n < 0 || n > MaxLen || n*min > d.Remaining() {
					t.Fatalf("Count(%d) = %d with %d bytes left", min, n, d.Remaining())
				}
			}
			if failed && (!zero || d.pos != before) {
				t.Fatalf("op %d after the first error: zero result %v, cursor %d -> %d", script[i]%9, zero, before, d.pos)
			}
			if d.pos < before || d.pos > len(buf) || d.pos+d.Remaining() != len(buf) {
				t.Fatalf("cursor %d -> %d, %d left of %d", before, d.pos, d.Remaining(), len(buf))
			}
		}
		clean := d.Err() == nil && d.Remaining() == 0
		if err := d.Finish(); (err == nil) != clean {
			t.Fatalf("Finish = %v with %d bytes left", err, d.Remaining())
		}
	})
}

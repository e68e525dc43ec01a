package wire

import (
	"bytes"
	"math"
	"testing"
)

// awkwardFloats are the values a numeric copy could canonicalise and a
// memmove cannot: NaNs with payload bits (quiet and signalling, both
// signs), negative zero, subnormals, infinities.
func awkwardFloats() []float64 {
	return []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8dead0000beef), // negative NaN, wide payload
		math.Float64frombits(0x7fffffffffffffff), // all-ones NaN
		math.Copysign(0, -1),
		0,
		math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Inf(1),
		math.Inf(-1),
		math.MaxFloat64,
		1.5,
		-2.25,
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestF64sBulkMatchesPerElement holds the bulk codec to the per-element
// oracle: identical bytes out, identical float bits back, with the block at
// every byte offset 0..7 of its buffer (frame offsets are never aligned).
func TestF64sBulkMatchesPerElement(t *testing.T) {
	for _, vs := range [][]float64{awkwardFloats(), {}, nil, {math.Pi}} {
		for off := 0; off < 8; off++ {
			prefix := bytes.Repeat([]byte{0xa5}, off)
			got := AppendF64s(append([]byte(nil), prefix...), vs)
			want := appendF64sPortable(append([]byte(nil), prefix...), vs)
			if !bytes.Equal(got, want) {
				t.Fatalf("offset %d, %d floats: bulk bytes differ from per-element\n got %x\nwant %x", off, len(vs), got, want)
			}

			// Trailing bytes prove ReadF64s stops at 8*len(dst).
			src := append(got, 0xff, 0xff, 0xff)[off:]
			bulk, oracle := make([]float64, len(vs)), make([]float64, len(vs))
			ReadF64s(bulk, src)
			readF64sPortable(oracle, src)
			if !sameBits(bulk, oracle) || !sameBits(bulk, vs) {
				t.Fatalf("offset %d: decoded bits differ: bulk %x oracle %x want %x", off, bulk, oracle, vs)
			}

			e := AppendingTo(append([]byte(nil), prefix...))
			e.F64s(vs)
			if !bytes.Equal(e.Bytes(), want) {
				t.Fatalf("offset %d: Encoder.F64s differs from per-element", off)
			}
		}
	}
}

// TestF64sDoesNotAliasSource: the encoded bytes and the decoded floats are
// copies, so mutating one side afterwards must not show through.
func TestF64sDoesNotAliasSource(t *testing.T) {
	vs := []float64{1, 2, 3}
	enc := AppendF64s(nil, vs)
	vs[0] = 99
	out := make([]float64, 3)
	ReadF64s(out, enc)
	for i := range enc {
		enc[i] = 0xff
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("decoded floats alias their source: %v", out)
	}
}

func TestReadF64sShortSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ReadF64s from a short buffer should panic, not read a partial block")
		}
	}()
	ReadF64s(make([]float64, 2), make([]byte, 15))
}

func BenchmarkF64s(b *testing.B) {
	vs := make([]float64, 64*64)
	for i := range vs {
		vs[i] = float64(i)
	}
	buf := make([]byte, 1, 1+8*len(vs)) // odd offset, like a frame
	b.Run("append/bulk", func(b *testing.B) {
		b.SetBytes(int64(8 * len(vs)))
		for i := 0; i < b.N; i++ {
			buf = AppendF64s(buf[:1], vs)
		}
	})
	b.Run("append/per-element", func(b *testing.B) {
		b.SetBytes(int64(8 * len(vs)))
		for i := 0; i < b.N; i++ {
			buf = appendF64sPortable(buf[:1], vs)
		}
	})
	buf = AppendF64s(buf[:1], vs)
	b.Run("read/bulk", func(b *testing.B) {
		b.SetBytes(int64(8 * len(vs)))
		for i := 0; i < b.N; i++ {
			ReadF64s(vs, buf[1:])
		}
	})
	b.Run("read/per-element", func(b *testing.B) {
		b.SetBytes(int64(8 * len(vs)))
		for i := 0; i < b.N; i++ {
			readF64sPortable(vs, buf[1:])
		}
	})
}

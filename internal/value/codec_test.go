package value

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"messengers/internal/wire"
)

// The buffer form the tests speak: one value from the front of buf, with
// the bytes consumed.
func decode(buf []byte) (Value, int, error) {
	d := wire.NewDecoder(buf)
	v := DecodeFrom(&d)
	return v, len(buf) - d.Remaining(), d.Err()
}

// genValue builds a random value of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	max := 6
	if depth <= 0 {
		max = 4 // leaf kinds only
	}
	switch r.Intn(max) {
	case 0:
		return Nil()
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Num(r.NormFloat64())
	case 3:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		if r.Intn(2) == 0 {
			return Str(string(b))
		}
		return Bytes(b)
	case 4:
		a := make([]Value, r.Intn(5))
		for i := range a {
			a[i] = genValue(r, depth-1)
		}
		return Arr(a)
	default:
		rows, cols := r.Intn(4), r.Intn(4)
		m := NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		return Matrix(m)
	}
}

// arbitraryValue adapts genValue to testing/quick.
type arbitraryValue struct{ V Value }

// Generate implements quick.Generator.
func (arbitraryValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(arbitraryValue{V: genValue(r, 3)})
}

func TestPropEncodeDecodeRoundTrip(t *testing.T) {
	f := func(av arbitraryValue) bool {
		enc, err := Append(nil, av.V)
		if err != nil {
			return false
		}
		dec, n, err := decode(enc)
		if err != nil || n != len(enc) {
			return false
		}
		return dec.Equal(av.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropCloneEqualAndIndependent(t *testing.T) {
	f := func(av arbitraryValue) bool {
		return av.V.Clone().Equal(av.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropWireSizeIsExact(t *testing.T) {
	f := func(av arbitraryValue) bool {
		enc, err := Append(nil, av.V)
		return err == nil && av.V.WireSize() == len(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(KindInt)},                     // short int
		{byte(KindNum), 1, 2},               // short num
		{byte(KindStr)},                     // missing length
		{byte(KindStr), 255, 255, 255, 255}, // absurd length
		{byte(KindBytes), 10, 0, 0, 0, 1},   // truncated payload
		{byte(KindArr)},                     // missing count
		{byte(KindArr), 2, 0, 0, 0, byte(KindInt)}, // truncated element
		{byte(KindMat), 1, 0, 0, 0},                // short dims
		{byte(KindMat), 2, 0, 0, 0, 2, 0, 0, 0},    // missing data
		// r*c overflows int64 to a small positive number; each dimension
		// must be bounded before the product is trusted (found by fuzzing).
		{byte(KindMat), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{200}, // unknown tag
	}
	for i, c := range cases {
		if _, _, err := decode(c); err == nil {
			t.Errorf("case %d: Decode(%v) should fail", i, c)
		}
	}
}

// TestMatrixBlockIsBitExact: the matrix payload moves as one block (wire's
// bulk float copy), so what arrives is the sender's bits — NaN payloads and
// negative zero included — wherever the value sits in its buffer, and one
// missing byte anywhere in the block is a decode error, not a short copy.
func TestMatrixBlockIsBitExact(t *testing.T) {
	m := NewMat(2, 3)
	bits := []uint64{0x7ff8000000000001, 0xfff0000000000001, 1 << 63, 1, 0x3ff8000000000000, 0x7ff0000000000000}
	for i, b := range bits {
		m.Data[i] = math.Float64frombits(b)
	}
	for off := 0; off < 8; off++ {
		buf, err := Append(make([]byte, off), Matrix(m))
		if err != nil {
			t.Fatal(err)
		}
		v, n, err := decode(buf[off:])
		if err != nil || n != len(buf)-off {
			t.Fatalf("offset %d: Decode consumed %d of %d bytes, err %v", off, n, len(buf)-off, err)
		}
		got := v.AsMat()
		if got.Rows != 2 || got.Cols != 3 {
			t.Fatalf("offset %d: dims %dx%d", off, got.Rows, got.Cols)
		}
		for i, b := range bits {
			if math.Float64bits(got.Data[i]) != b {
				t.Errorf("offset %d, element %d: bits %#x, want %#x", off, i, math.Float64bits(got.Data[i]), b)
			}
		}
		if _, _, err := decode(buf[off : len(buf)-1]); err == nil {
			t.Errorf("offset %d: matrix short by one byte decoded", off)
		}
	}
}

// TestAppendRejectsOversized crafts values whose encoded length exceeds the
// uint32-safe bound; Append must report an error instead of truncating the
// length prefix (the old behavior produced frames the decoder rejects — or
// worse, accepts with the wrong length).
func TestAppendRejectsOversized(t *testing.T) {
	// A matrix header can claim absurd dimensions without allocating the
	// backing data, which is how a crafted value trips the guard cheaply.
	huge := Matrix(&Mat{Rows: maxWireLen + 1, Cols: 1})
	if _, err := Append(nil, huge); err == nil {
		t.Error("Append accepted an oversized matrix")
	}
	// The guard must propagate out of nested containers.
	if _, err := Append(nil, Arr([]Value{Int(1), huge})); err == nil {
		t.Error("Append accepted an array containing an oversized matrix")
	}
}

// nest wraps a nil in n one-element arrays.
func nest(n int) Value {
	v := Nil()
	for i := 0; i < n; i++ {
		v = Arr([]Value{v})
	}
	return v
}

// TestNestingLimit: a value nested exactly MaxDepth arrays deep round-trips,
// and one level more is refused by the encoder and the decoder alike.
func TestNestingLimit(t *testing.T) {
	enc, err := Append(nil, nest(MaxDepth))
	if err != nil {
		t.Fatalf("Append at the limit: %v", err)
	}
	if v, _, err := decode(enc); err != nil || !v.Equal(nest(MaxDepth)) {
		t.Fatalf("decode at the limit: %v", err)
	}
	if _, err := Append(nil, nest(MaxDepth+1)); err == nil || err.Error() != "value: encode array: nested deeper than 256" {
		t.Errorf("Append past the limit: err = %v", err)
	}
	past := append([]byte{byte(KindArr), 1, 0, 0, 0}, enc...)
	if _, _, err := decode(past); err == nil || err.Error() != "value: decode: arrays nested deeper than 256" {
		t.Errorf("decode past the limit: err = %v", err)
	}
}

// TestDecodeDeepFrameIsAnError: 64 MB of one-element arrays, five bytes a
// level, is a frame a peer can send. Decoding it must return an error; an
// unbounded recursion would overflow the goroutine stack instead, which
// kills the process.
func TestDecodeDeepFrameIsAnError(t *testing.T) {
	frame := append(bytes.Repeat([]byte{byte(KindArr), 1, 0, 0, 0}, (64<<20)/5), byte(KindNil))
	if _, _, err := decode(frame); err == nil {
		t.Fatal("a 64 MB nested-array frame decoded without error")
	}
}

func TestCloneEnv(t *testing.T) {
	env := map[string]Value{"a": Bytes([]byte{1})}
	cl := CloneEnv(env)
	env["a"].AsBytes()[0] = 9
	if cl["a"].AsBytes()[0] != 1 {
		t.Error("CloneEnv must deep-copy values")
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestEncoderPrimitives(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 40)
	e.F64(2.5)
	e.Str("hi")
	e.Blob([]byte{1, 2, 3})
	e.Raw([]byte{9})
	if e.Err() != nil {
		t.Fatalf("unexpected encoder error: %v", e.Err())
	}
	var want []byte
	want = append(want, 7)
	want = binary.LittleEndian.AppendUint32(want, 0xdeadbeef)
	want = binary.LittleEndian.AppendUint64(want, 1<<40)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(2.5))
	want = binary.LittleEndian.AppendUint32(want, 2)
	want = append(want, "hi"...)
	want = binary.LittleEndian.AppendUint32(want, 3)
	want = append(want, 1, 2, 3)
	want = append(want, 9)
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("encoding mismatch:\n got %x\nwant %x", e.Bytes(), want)
	}
	if e.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", e.Len(), len(want))
	}
}

func TestEncoderStickyError(t *testing.T) {
	e := AppendingTo(nil)
	e.U8(1)
	// MaxLen guard must reject without appending, and later writes must be
	// no-ops. Build an oversized string header-only check via a fake length:
	// constructing a real >1GiB string is too expensive, so use Fail.
	e.Fail(errFake)
	e.U32(42)
	e.Str("x")
	if e.Err() != errFake {
		t.Fatalf("Err = %v, want sticky first error", e.Err())
	}
	if e.Len() != 1 {
		t.Fatalf("writes after error extended the buffer to %d bytes", e.Len())
	}
}

var errFake = errString("fake")

type errString string

func (e errString) Error() string { return string(e) }

func TestEncoderReservePatch(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	off := e.Reserve(4)
	e.Str("payload")
	e.PatchU32(off, uint32(e.Len()))
	got := binary.LittleEndian.Uint32(e.Bytes()[off:])
	if int(got) != e.Len() {
		t.Fatalf("patched %d, want %d", got, e.Len())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	off := e.BeginFrame()
	e.Str("hello frame")
	if err := e.EndFrame(off); err != nil {
		t.Fatal(err)
	}
	hdr := e.Bytes()[:FrameHeaderLen]
	n, err := ParseFrameHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if n != e.Len()-FrameHeaderLen {
		t.Fatalf("payload length %d, want %d", n, e.Len()-FrameHeaderLen)
	}
}

func TestParseFrameHeaderRejects(t *testing.T) {
	if _, err := ParseFrameHeader([]byte{1, 2, 3}); err == nil {
		t.Error("short header accepted")
	}
	bad := make([]byte, FrameHeaderLen)
	binary.LittleEndian.PutUint16(bad, 0x7777)
	if _, err := ParseFrameHeader(bad); err == nil {
		t.Error("bad magic accepted")
	}
	huge := make([]byte, FrameHeaderLen)
	binary.LittleEndian.PutUint16(huge, FrameMagic)
	binary.LittleEndian.PutUint32(huge[4:], MaxFrame+1)
	if _, err := ParseFrameHeader(huge); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestPoolReuse(t *testing.T) {
	before := ReadStats()
	e := NewEncoder()
	e.Str(strings.Repeat("x", 100))
	e.Release()
	// A second encoder should (usually) reuse the same buffer; at minimum
	// the counters must have moved.
	e2 := NewEncoder()
	e2.U8(1)
	e2.Release()
	after := ReadStats()
	if after.PoolGets < before.PoolGets+2 {
		t.Errorf("PoolGets did not advance: %+v -> %+v", before, after)
	}
	if after.BytesEncoded <= before.BytesEncoded {
		t.Errorf("BytesEncoded did not advance: %+v -> %+v", before, after)
	}
}

func TestGetPutBuf(t *testing.T) {
	p := GetBuf()
	if len(*p) != 0 {
		t.Fatalf("GetBuf returned %d bytes", len(*p))
	}
	*p = append(*p, 1, 2, 3)
	PutBuf(p)
	if q := GetBuf(); len(*q) != 0 {
		t.Fatalf("a recycled box came back holding %d bytes", len(*q))
	}
	// Oversized buffers must be dropped, not pooled.
	big := make([]byte, 0, maxPooledCap+1)
	PutBuf(&big)
}

// TestPoolRoundTripAllocatesNothing pins the box rule: a buffer leaves the
// pool and returns to it in the same *[]byte, so neither a raw Get/Put nor
// an encoder's NewEncoder/Release allocates once the pool is warm.
func TestPoolRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if n := testing.AllocsPerRun(200, func() {
		p := GetBuf()
		*p = append(*p, 1, 2, 3)
		PutBuf(p)
	}); n != 0 {
		t.Errorf("GetBuf/PutBuf: %v allocs per round trip, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		e := NewEncoder()
		e.U64(7)
		e.Release()
	}); n != 0 {
		t.Errorf("NewEncoder/Release: %v allocs per round trip, want 0", n)
	}
}

// Package wire is the unified serialization layer: a pooled, single-pass
// Encoder shared by every subsystem that produces wire bytes (value codec,
// VM snapshots, daemon messages, programs, the TCP transport, PVM pack
// buffers) and the one bounds-checked Decoder everything that arrives is
// read through.
//
// The layer exists to keep the hot hop path free of redundant copies, per
// the paper's §2.1 analysis: a Messenger transfer should walk the state
// once, appending directly into one buffer that already begins with the
// transport frame header, instead of building a snapshot slice, copying it
// into a message encoding, and copying that into a socket frame. Buffers
// come from a process-wide pool so steady-state encoding allocates nothing.
//
// Ownership contract: a pooled Encoder is owned by the caller of NewEncoder
// until Release, which recycles the buffer — no slice derived from Bytes()
// may be used afterwards.
//
// Inbound frames are pooled too, under a lifetime rule: the TCP transport
// reads each frame into a GetBuf buffer and owns it until the daemon's
// HandleMsg for the decoded message has returned, then PutBufs it.
// Decoder.Blob aliases the frame (DecodeMsg's Snapshot and ProgBytes), so
// nothing that outlives HandleMsg may keep a subslice of it — consumers that
// retain data (value.DecodeFrom, vm.Restore, bytecode.Decode) copy what they
// keep.
//
// Float blocks (matrix payloads, PVM double arrays) move as one memmove on
// little-endian hosts — see AppendF64s and ReadF64s in f64s.go, the only
// place the package uses unsafe.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// MaxLen bounds a single length-prefixed element (string, byte block,
// array, matrix, snapshot). It matches the decode-side guard in
// internal/value so an encoder can never produce a frame its own decoder
// rejects, and is far below the uint32 length prefix's wrap-around point.
const MaxLen = 1 << 30

// Frame header layout, shared by the TCP transport and the pooled encoder:
// magic (2 bytes), version (2 bytes), payload length (4 bytes), little
// endian throughout. The byte format on the network is frozen — guarded by
// the cross-engine golden test.
const (
	// FrameMagic guards against cross-protocol garbage ("MS").
	FrameMagic = 0x4d53
	// FrameVersion is the current frame format version.
	FrameVersion = 0
	// FrameHeaderLen is the fixed frame header size in bytes.
	FrameHeaderLen = 8
	// MaxFrame bounds a single message frame (64 MB).
	MaxFrame = 64 << 20
)

// Pool statistics (process-wide, monotonic).
var (
	poolGets     atomic.Int64
	poolMisses   atomic.Int64
	bytesEncoded atomic.Int64
)

// Stats is a snapshot of the pool counters.
type Stats struct {
	// PoolGets counts buffer acquisitions (encoder or raw).
	PoolGets int64
	// PoolMisses counts acquisitions that had to allocate a fresh buffer.
	PoolMisses int64
	// PoolHits is PoolGets - PoolMisses.
	PoolHits int64
	// BytesEncoded totals bytes handed out of encoders via Release.
	BytesEncoded int64
}

// ReadStats returns the current pool counters.
func ReadStats() Stats {
	gets, misses := poolGets.Load(), poolMisses.Load()
	return Stats{
		PoolGets:     gets,
		PoolMisses:   misses,
		PoolHits:     gets - misses,
		BytesEncoded: bytesEncoded.Load(),
	}
}

// initialBufCap sizes fresh pool buffers; large enough for control messages
// and small snapshots without a regrow.
const initialBufCap = 4096

// maxPooledCap keeps one huge frame from pinning memory in the pool
// forever; larger buffers are dropped on Release/PutBuf.
const maxPooledCap = 4 << 20

var bufPool = sync.Pool{
	New: func() any {
		poolMisses.Add(1)
		b := make([]byte, 0, initialBufCap)
		return &b
	},
}

// GetBuf returns a zero-length pooled buffer in the box it is pooled in
// (for callers that append directly, like PVM pack buffers). The caller
// works on *p, storing a regrown slice back into it, and returns the same
// box with PutBuf: the pool holds pointers, so a box that makes the round
// trip costs no allocation either way.
func GetBuf() *[]byte {
	poolGets.Add(1)
	p := bufPool.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

// PutBuf recycles a box obtained from GetBuf with whatever buffer it holds
// now. The caller must not touch p or *p afterwards.
func PutBuf(p *[]byte) {
	if cap(*p) == 0 || cap(*p) > maxPooledCap {
		return
	}
	bufPool.Put(p)
}

var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// Encoder appends a canonical little-endian encoding into one buffer. The
// zero Encoder is usable (it grows a heap buffer); NewEncoder hands out a
// pooled one. Errors are sticky: after any failed append the encoder stops
// writing and Err reports the first failure.
type Encoder struct {
	buf []byte
	err error
	// box is the pool box buf came in (nil for an unpooled encoder); Release
	// hands the buffer back in it.
	box *[]byte
}

// NewEncoder returns an encoder over a pooled buffer. Pair with Release.
func NewEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.box = GetBuf()
	e.buf = *e.box
	e.err = nil
	return e
}

// AppendingTo returns an encoder that appends to a caller-owned buffer
// (no pooling; Bytes returns the extended slice).
func AppendingTo(buf []byte) *Encoder {
	return &Encoder{buf: buf}
}

// Release recycles a pooled encoder and its buffer. No slice obtained from
// Bytes may be used afterwards.
func (e *Encoder) Release() {
	bytesEncoded.Add(int64(len(e.buf)))
	if e.box != nil {
		*e.box = e.buf
		PutBuf(e.box)
		e.buf, e.err, e.box = nil, nil, nil
		encPool.Put(e)
	}
}

// Err returns the first append failure, or nil.
func (e *Encoder) Err() error { return e.err }

// Fail records an error; the first one sticks and later appends are no-ops.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Len returns the number of bytes appended so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Bytes returns the encoded bytes. The slice aliases the encoder's buffer:
// invalid after Release, and further appends may move it.
func (e *Encoder) Bytes() []byte { return e.buf }

// Grow reserves capacity for at least n more bytes.
func (e *Encoder) Grow(n int) {
	if need := len(e.buf) + n; need > cap(e.buf) {
		// The outgrown buffer is dropped; the grown one returns to the pool
		// in its box, so the pool converges on the traffic's sizes.
		nb := make([]byte, len(e.buf), need)
		copy(nb, e.buf)
		e.buf = nb
	}
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) {
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, v)
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	if e.err != nil {
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	if e.err != nil {
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// F64 appends a float64 as its IEEE 754 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// F64s appends a float64 slice, byte-identical to calling F64 per element,
// with one capacity check and (on little-endian hosts) one memmove for the
// whole block — the bulk path matrix payloads encode through on every hop
// snapshot.
func (e *Encoder) F64s(vs []float64) {
	if e.err != nil {
		return
	}
	e.Grow(8 * len(vs))
	e.buf = AppendF64s(e.buf, vs)
}

// Str appends a uint32 length prefix and the string bytes, rejecting
// lengths beyond MaxLen (the encode-side mirror of the decode guard).
func (e *Encoder) Str(s string) {
	if e.err != nil {
		return
	}
	if len(s) > MaxLen {
		e.Fail(fmt.Errorf("wire: string of %d bytes exceeds MaxLen (%d)", len(s), MaxLen))
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a uint32 length prefix and the bytes, rejecting lengths
// beyond MaxLen.
func (e *Encoder) Blob(b []byte) {
	if e.err != nil {
		return
	}
	if len(b) > MaxLen {
		e.Fail(fmt.Errorf("wire: byte block of %d bytes exceeds MaxLen (%d)", len(b), MaxLen))
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends bytes with no length prefix (fixed-width fields).
func (e *Encoder) Raw(b []byte) {
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, b...)
}

// Reserve appends n zero bytes and returns their offset, for headers whose
// fields (like a payload length) are only known after the payload is
// appended. Patch them with PatchU32.
func (e *Encoder) Reserve(n int) int {
	if e.err != nil {
		return len(e.buf)
	}
	off := len(e.buf)
	e.Grow(n)
	e.buf = e.buf[:off+n]
	for i := off; i < off+n; i++ {
		e.buf[i] = 0
	}
	return off
}

// PatchU32 overwrites 4 bytes at a Reserve'd offset.
func (e *Encoder) PatchU32(off int, v uint32) {
	if e.err != nil || off+4 > len(e.buf) {
		return
	}
	binary.LittleEndian.PutUint32(e.buf[off:], v)
}

// BeginFrame appends a transport frame header with a zero payload length
// and returns the header offset for EndFrame.
func (e *Encoder) BeginFrame() int {
	off := e.Reserve(FrameHeaderLen)
	if e.err != nil {
		return off
	}
	binary.LittleEndian.PutUint16(e.buf[off:], FrameMagic)
	binary.LittleEndian.PutUint16(e.buf[off+2:], FrameVersion)
	return off
}

// EndFrame patches the payload length of the frame begun at off and
// enforces the MaxFrame bound. The payload is everything appended since
// BeginFrame returned.
func (e *Encoder) EndFrame(off int) error {
	if e.err != nil {
		return e.err
	}
	n := len(e.buf) - off - FrameHeaderLen
	if n < 0 {
		e.Fail(fmt.Errorf("wire: EndFrame before BeginFrame"))
		return e.err
	}
	if n > MaxFrame {
		e.Fail(fmt.Errorf("wire: frame of %d bytes exceeds limit (%d)", n, MaxFrame))
		return e.err
	}
	e.PatchU32(off+4, uint32(n))
	return nil
}

// ParseFrameHeader validates a frame header and returns the payload length.
func ParseFrameHeader(hdr []byte) (int, error) {
	if len(hdr) < FrameHeaderLen {
		return 0, fmt.Errorf("wire: short frame header (%d bytes)", len(hdr))
	}
	if binary.LittleEndian.Uint16(hdr) != FrameMagic {
		return 0, fmt.Errorf("wire: bad frame magic %#x", hdr[:2])
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	return int(n), nil
}

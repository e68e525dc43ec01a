package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Decoder is the one reader of what Encoder writes: a cursor over a buffer
// it does not own, with a sticky error. After the first failed read every
// read returns zero and the cursor stays put, so a decode is a straight run
// of reads and one look at Err or Finish. It is a value (NewDecoder returns
// it, not a pointer to it) so that decoding a frame allocates nothing for
// the cursor; the methods take its address.
//
// Only Blob hands out frame memory; under the lifetime rule of docs/WIRE.md
// what it returns dies with the frame. Everything else is copied out.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a decoder reading buf from its first byte.
func NewDecoder(buf []byte) Decoder { return Decoder{buf: buf} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records an error; the first one sticks and later reads return zero.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Remaining is the number of bytes not yet consumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Finish is Err for a decode that must consume its whole buffer: bytes left
// over after the last field are an error too.
func (d *Decoder) Finish() error {
	if d.err == nil && d.pos < len(d.buf) {
		d.err = fmt.Errorf("wire: %d trailing bytes after byte %d", len(d.buf)-d.pos, d.pos)
	}
	return d.err
}

// take consumes the next n bytes and returns them, capped so that an append
// cannot reach the rest of the frame; nil once the decoder has failed or
// when fewer than n remain. It is the package's one bounds check.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if uint(n) > uint(len(d.buf)-d.pos) {
		d.err = fmt.Errorf("wire: truncated at byte %d: %d more needed, %d left", d.pos, n, len(d.buf)-d.pos)
		return nil
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if b := d.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.take(4); len(b) == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.take(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 from its IEEE 754 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// F64s fills dst from the next 8*len(dst) bytes, the inverse of
// Encoder.F64s; on failure dst is left as it was.
func (d *Decoder) F64s(dst []float64) {
	if b := d.take(8 * len(dst)); len(b) == 8*len(dst) {
		ReadF64s(dst, b)
	}
}

// Raw fills dst from the next len(dst) bytes (fixed-width fields).
func (d *Decoder) Raw(dst []byte) { copy(dst, d.take(len(dst))) }

// Count reads a uint32 element count and refuses it, before the caller
// allocates anything for it, unless that many elements of at least min
// encoded bytes each fit in what remains (and the count is within MaxLen).
func (d *Decoder) Count(min int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if n > MaxLen || uint64(n)*uint64(min) > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("wire: count %d at byte %d (%d bytes each) exceeds the %d bytes left",
			n, d.pos-4, min, d.Remaining()))
		return 0
	}
	return int(n)
}

// Blob reads a uint32 length prefix and returns that many bytes as a capped
// subslice of the buffer (nil when the length is zero): no copy, so the
// result lives only as long as the frame does.
func (d *Decoder) Blob() []byte {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	return d.take(n)
}

// Str reads a length-prefixed string, copied out of the buffer.
func (d *Decoder) Str() string { return string(d.Blob()) }

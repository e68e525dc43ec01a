package value

import (
	"bytes"
	"fmt"

	"messengers/internal/wire"
)

// The binary wire format is what daemons ship between hosts when a Messenger
// hops: little-endian, tag byte followed by the payload. It is also used by
// the PVM baseline's pack/unpack buffers so both systems move the same bytes.

// maxWireLen bounds a single string/bytes/array/matrix in both directions:
// decode rejects corrupt or hostile frames before allocating, and encode
// rejects values whose length a uint32 prefix would silently truncate.
const maxWireLen = wire.MaxLen

// MaxDepth bounds how deeply arrays nest inside one value on the wire, in
// both directions. Decoding recurses once per level and a one-element
// array costs five bytes, so without it a 64 MB frame would nest deep
// enough to overflow the goroutine stack, which no recover can catch.
const MaxDepth = 256

// AppendTo encodes v into e in one pass. Oversized elements (beyond
// maxWireLen) and arrays nested deeper than MaxDepth set the encoder's
// sticky error instead of writing bytes a decoder would refuse.
func (v Value) AppendTo(e *wire.Encoder) { v.appendTo(e, 0) }

// appendTo encodes v, which sits inside depth enclosing arrays.
func (v Value) appendTo(e *wire.Encoder, depth int) {
	e.U8(byte(v.kind))
	switch v.kind {
	case KindNil:
	case KindInt, KindNum:
		e.U64(v.bits)
	case KindStr:
		if v.bits > maxWireLen {
			e.Fail(fmt.Errorf("value: encode str: length %d exceeds limit (%d)", v.bits, maxWireLen))
			return
		}
		e.Str(v.str())
	case KindBytes:
		if v.bits > maxWireLen {
			e.Fail(fmt.Errorf("value: encode bytes: length %d exceeds limit (%d)", v.bits, maxWireLen))
			return
		}
		e.Blob(v.byt())
	case KindArr:
		// Every element encodes to at least one byte, so any array the
		// decoder would accept has at most maxWireLen elements.
		if v.bits > maxWireLen {
			e.Fail(fmt.Errorf("value: encode array: %d elements exceed limit (%d)", v.bits, maxWireLen))
			return
		}
		if depth == MaxDepth {
			e.Fail(fmt.Errorf("value: encode array: nested deeper than %d", MaxDepth))
			return
		}
		e.U32(uint32(v.bits))
		for _, el := range v.arr() {
			el.appendTo(e, depth+1)
		}
	case KindMat:
		m := v.mat()
		if m == nil {
			m = &Mat{}
		}
		if len(m.Data) > maxWireLen/8 || m.Rows > maxWireLen || m.Cols > maxWireLen {
			e.Fail(fmt.Errorf("value: encode matrix: %dx%d exceeds limit (%d bytes)", m.Rows, m.Cols, maxWireLen))
			return
		}
		e.U32(uint32(m.Rows))
		e.U32(uint32(m.Cols))
		e.F64s(m.Data)
	}
}

// Append encodes v onto buf and returns the extended slice. An oversized
// element (beyond maxWireLen — which a uint32 length prefix would otherwise
// silently truncate) is reported as an error; buf's extension is then
// partial and must be discarded.
func Append(buf []byte, v Value) ([]byte, error) {
	e := wire.AppendingTo(buf)
	v.AppendTo(e)
	return e.Bytes(), e.Err()
}

// DecodeFrom reads one value from d. Everything it returns is a copy: no
// string, byte block or matrix aliases the decoder's buffer. A malformed
// value, or arrays nested deeper than MaxDepth, set d's sticky error and
// come back as nil.
func DecodeFrom(d *wire.Decoder) Value { return decodeFrom(d, 0) }

// decodeFrom reads one value that sits inside depth enclosing arrays.
func decodeFrom(d *wire.Decoder, depth int) Value {
	switch k := Kind(d.U8()); k {
	case KindNil:
		return Nil()
	case KindInt:
		return Int(int64(d.U64()))
	case KindNum:
		return Num(d.F64())
	case KindStr:
		return Str(d.Str())
	case KindBytes:
		return Bytes(bytes.Clone(d.Blob()))
	case KindArr:
		if depth == MaxDepth {
			d.Fail(fmt.Errorf("value: decode: arrays nested deeper than %d", MaxDepth))
			return Nil()
		}
		// Every element takes at least its tag byte.
		a := make([]Value, d.Count(1))
		for i := 0; i < len(a) && d.Err() == nil; i++ {
			a[i] = decodeFrom(d, depth+1)
		}
		return Arr(a)
	case KindMat:
		// The row count alone promises no bytes (an r x 0 matrix has none);
		// the column count is held to 8*r bytes per column.
		r := d.Count(0)
		m := NewMat(r, d.Count(8*r))
		d.F64s(m.Data)
		return Matrix(m)
	default:
		d.Fail(fmt.Errorf("value: decode: unknown kind tag %d", k))
		return Nil()
	}
}

// CloneEnv deep-copies a variable map.
func CloneEnv(env map[string]Value) map[string]Value {
	out := make(map[string]Value, len(env))
	//lint:maporder map copy is order-independent
	for k, v := range env {
		out[k] = v.Clone()
	}
	return out
}

package wire

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Float blocks are the per-byte cost of a hop: a Messenger carrying a
// matrix is almost nothing but one []float64. The wire format stores each
// element as its little-endian IEEE 754 bit pattern, which on a
// little-endian host is the slice's own memory image, so the block moves
// with one copy instead of one PutUint64 per element — the paper's "ship
// the Messenger-variable area as a block" against PVM's element-wise pack.
//
// The cast only ever goes floats→bytes: a []float64's storage is 8-aligned
// and viewing it as bytes is always legal, so both directions copy between
// wire bytes and a byte view of the float storage. The reverse view (frame
// bytes as floats) is never taken — a matrix sits at an arbitrary offset
// inside a frame, a misaligned *float64 is undefined on some targets, and
// checkptr (on under -race) rightly panics on it.

// hostLittleEndian is the package's one platform selection, evaluated once.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes views the storage of vs as bytes (no copy).
func f64Bytes(vs []float64) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*len(vs))
}

// AppendF64s appends vs to dst as little-endian IEEE 754 bit patterns and
// returns the extended slice, byte-identical to AppendUint64 per element.
func AppendF64s(dst []byte, vs []float64) []byte {
	if hostLittleEndian {
		return append(dst, f64Bytes(vs)...)
	}
	return appendF64sPortable(dst, vs)
}

// ReadF64s fills dst from the first 8*len(dst) bytes of src, the inverse of
// AppendF64s. src may sit at any alignment. The caller bound-checks the
// block once; a shorter src panics like any out-of-range slice.
func ReadF64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	if hostLittleEndian {
		copy(f64Bytes(dst), src)
		return
	}
	readF64sPortable(dst, src)
}

// appendF64sPortable and readF64sPortable are the per-element codec: the
// path big-endian hosts take, and the oracle the bulk path is tested
// against. Out of line, so callers inline the copy and not the loops.
//
//go:noinline
func appendF64sPortable(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

//go:noinline
func readF64sPortable(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"messengers/internal/wire"
)

// The binary wire format is what daemons ship between hosts when a Messenger
// hops: little-endian, tag byte followed by the payload. It is also used by
// the PVM baseline's pack/unpack buffers so both systems move the same bytes.

// maxWireLen bounds a single string/bytes/array/matrix in both directions:
// decode rejects corrupt or hostile frames before allocating, and encode
// rejects values whose length a uint32 prefix would silently truncate.
const maxWireLen = wire.MaxLen

// AppendTo encodes v into e in one pass. Oversized elements (beyond
// maxWireLen) set the encoder's sticky error instead of truncating.
func (v Value) AppendTo(e *wire.Encoder) {
	e.U8(byte(v.kind))
	switch v.kind {
	case KindNil:
	case KindInt:
		e.U64(uint64(v.i))
	case KindNum:
		e.F64(v.n)
	case KindStr:
		if len(v.s) > maxWireLen {
			e.Fail(fmt.Errorf("value: encode str: length %d exceeds limit (%d)", len(v.s), maxWireLen))
			return
		}
		e.Str(v.s)
	case KindBytes:
		if len(v.bytes) > maxWireLen {
			e.Fail(fmt.Errorf("value: encode bytes: length %d exceeds limit (%d)", len(v.bytes), maxWireLen))
			return
		}
		e.Blob(v.bytes)
	case KindArr:
		// Every element encodes to at least one byte, so any array the
		// decoder would accept has at most maxWireLen elements.
		if len(v.arr) > maxWireLen {
			e.Fail(fmt.Errorf("value: encode array: %d elements exceed limit (%d)", len(v.arr), maxWireLen))
			return
		}
		e.U32(uint32(len(v.arr)))
		for _, el := range v.arr {
			el.AppendTo(e)
		}
	case KindMat:
		m := v.mat
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

// Decode reads one value from buf, returning the value and the number of
// bytes consumed.
func Decode(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Nil(), 0, fmt.Errorf("value: decode: empty buffer")
	}
	k := Kind(buf[0])
	p := 1
	switch k {
	case KindNil:
		return Nil(), p, nil
	case KindInt:
		if len(buf) < p+8 {
			return Nil(), 0, fmt.Errorf("value: decode int: short buffer")
		}
		return Int(int64(binary.LittleEndian.Uint64(buf[p:]))), p + 8, nil
	case KindNum:
		if len(buf) < p+8 {
			return Nil(), 0, fmt.Errorf("value: decode num: short buffer")
		}
		return Num(math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))), p + 8, nil
	case KindStr, KindBytes:
		if len(buf) < p+4 {
			return Nil(), 0, fmt.Errorf("value: decode %v: short buffer", k)
		}
		n := int(binary.LittleEndian.Uint32(buf[p:]))
		p += 4
		if n > maxWireLen || len(buf) < p+n {
			return Nil(), 0, fmt.Errorf("value: decode %v: length %d exceeds buffer", k, n)
		}
		if k == KindStr {
			return Str(string(buf[p : p+n])), p + n, nil
		}
		b := make([]byte, n)
		copy(b, buf[p:p+n])
		return Bytes(b), p + n, nil
	case KindArr:
		if len(buf) < p+4 {
			return Nil(), 0, fmt.Errorf("value: decode array: short buffer")
		}
		n := int(binary.LittleEndian.Uint32(buf[p:]))
		p += 4
		// Every element takes at least one byte; reject counts the buffer
		// cannot possibly hold before allocating.
		if n > maxWireLen || n > len(buf)-p {
			return Nil(), 0, fmt.Errorf("value: decode array: length %d exceeds buffer", n)
		}
		a := make([]Value, n)
		for i := 0; i < n; i++ {
			e, c, err := Decode(buf[p:])
			if err != nil {
				return Nil(), 0, fmt.Errorf("value: decode array elem %d: %w", i, err)
			}
			a[i] = e
			p += c
		}
		return Arr(a), p, nil
	case KindMat:
		if len(buf) < p+8 {
			return Nil(), 0, fmt.Errorf("value: decode matrix: short buffer")
		}
		r := int(binary.LittleEndian.Uint32(buf[p:]))
		c := int(binary.LittleEndian.Uint32(buf[p+4:]))
		p += 8
		// Bound each dimension before multiplying: r and c are raw uint32
		// reads, so r*c can overflow int64 and sneak past a product-only
		// check. Found by fuzzing.
		if r < 0 || c < 0 || r > maxWireLen/8 || c > maxWireLen/8 ||
			r*c > maxWireLen/8 || len(buf) < p+8*r*c {
			return Nil(), 0, fmt.Errorf("value: decode matrix: %dx%d exceeds buffer", r, c)
		}
		m := NewMat(r, c)
		wire.ReadF64s(m.Data, buf[p:])
		return Matrix(m), p + 8*len(m.Data), nil
	default:
		return Nil(), 0, fmt.Errorf("value: decode: unknown kind tag %d", buf[0])
	}
}

// AppendEnvTo encodes a variable map into e in sorted key order
// (deterministic), one pass, no intermediate buffers.
func AppendEnvTo(e *wire.Encoder, env map[string]Value) {
	keys := make([]string, 0, len(env))
	//lint:maporder keys are collected then sorted before use
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(k)
		env[k].AppendTo(e)
	}
}

// AppendEnv encodes a variable map onto buf in sorted key order. An
// oversized element is reported as an error (see Append).
func AppendEnv(buf []byte, env map[string]Value) ([]byte, error) {
	e := wire.AppendingTo(buf)
	AppendEnvTo(e, env)
	return e.Bytes(), e.Err()
}

// DecodeEnv reads a variable map encoded by AppendEnv.
func DecodeEnv(buf []byte) (map[string]Value, int, error) {
	return DecodeEnvInto(nil, nil, buf)
}

// DecodeEnvInto is DecodeEnv into a map the caller supplies empty (nil: a
// fresh one sized to the entry count). A key that intern holds is taken
// from there instead of being copied out of buf, so decoding the variables
// of a known program into a reused map allocates no key strings. On error
// env may hold some of the entries.
func DecodeEnvInto(env map[string]Value, intern map[string]string, buf []byte) (map[string]Value, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("value: decode env: short buffer")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	p := 4
	// Each entry takes at least five bytes (key length + value tag).
	if n > maxWireLen || n > (len(buf)-p)/5 {
		return nil, 0, fmt.Errorf("value: decode env: %d entries exceed buffer", n)
	}
	if env == nil {
		env = make(map[string]Value, n)
	}
	for i := 0; i < n; i++ {
		if len(buf) < p+4 {
			return nil, 0, fmt.Errorf("value: decode env key %d: short buffer", i)
		}
		kl := int(binary.LittleEndian.Uint32(buf[p:]))
		p += 4
		if kl > maxWireLen || len(buf) < p+kl {
			return nil, 0, fmt.Errorf("value: decode env key %d: length %d exceeds buffer", i, kl)
		}
		key, ok := intern[string(buf[p:p+kl])]
		if !ok {
			key = string(buf[p : p+kl])
		}
		p += kl
		v, c, err := Decode(buf[p:])
		if err != nil {
			return nil, 0, fmt.Errorf("value: decode env %q: %w", key, err)
		}
		env[key] = v
		p += c
	}
	return env, p, nil
}

// EnvWireSize returns the exact encoded size of a variable map; it must
// agree byte-for-byte with AppendEnvTo.
func EnvWireSize(env map[string]Value) int {
	n := 4
	//lint:maporder summation is order-independent
	for k, v := range env {
		n += 4 + len(k) + v.WireSize()
	}
	return n
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

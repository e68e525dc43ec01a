// Package value implements the dynamic value system shared by the MESSENGERS
// virtual machine, logical-node variables, and the PVM packing buffers.
//
// The MESSENGERS script language (MSL) is dynamically typed at the VM level,
// mirroring the paper's "subset of C" where all standard data types except
// pointers are supported. A Value is one of: integer, number (float64),
// string, byte block, array of values, or dense float64 matrix. Matrices and
// byte blocks exist so that the numeric workloads of the paper (block matrix
// multiplication, Mandelbrot pixel blocks) can be carried by Messengers and
// packed by PVM without boxing every element.
package value

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported kinds. KindNil is the zero Value (absent variable).
const (
	KindNil Kind = iota
	KindInt
	KindNum
	KindStr
	KindBytes
	KindArr
	KindMat
)

// String returns the MSL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindNum:
		return "num"
	case KindStr:
		return "str"
	case KindBytes:
		return "bytes"
	case KindArr:
		return "array"
	case KindMat:
		return "matrix"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Mat is a dense row-major matrix of float64.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zeroed r×c matrix.
func NewMat(r, c int) *Mat {
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of the matrix.
func (m *Mat) Clone() *Mat {
	d := make([]float64, len(m.Data))
	copy(d, m.Data)
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// Value is a dynamically typed MSL value. The zero Value is nil.
//
// A Value is three words, 24 bytes with one pointer word, because every
// operand-stack slot, local, Messenger variable, native argument and node
// variable is one and the interpreter copies them on every push and pop:
//
//   - int and num keep their payload in bits (a num as math.Float64bits);
//   - str, bytes and arr keep their data pointer in p and their length in
//     bits. A zero length stores p = nil, so there is one empty form and p
//     never points past the end of an allocation;
//   - mat keeps its *Mat in p.
//
// Every accessor checks the kind, so a payload left behind by an in-place
// scalar write (see fast.go) is never read back; it only stays reachable
// until the slot is overwritten.
type Value struct {
	kind Kind
	bits uint64
	p    unsafe.Pointer
}

// Nil returns the nil Value.
func Nil() Value { return Value{} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, bits: uint64(i)} }

// Num returns a floating-point Value.
func Num(f float64) Value { return Value{kind: KindNum, bits: math.Float64bits(f)} }

// Str returns a string Value.
func Str(s string) Value { return ref(KindStr, unsafe.Pointer(unsafe.StringData(s)), len(s)) }

// Bytes returns a byte-block Value. The slice is not copied; AsBytes gives
// back the same bytes with no spare capacity.
func Bytes(b []byte) Value { return ref(KindBytes, unsafe.Pointer(unsafe.SliceData(b)), len(b)) }

// Arr returns an array Value. The slice is not copied.
func Arr(vs []Value) Value { return ref(KindArr, unsafe.Pointer(unsafe.SliceData(vs)), len(vs)) }

// ref is a pointer-and-length Value; a zero length keeps p nil, the one
// empty form.
func ref(k Kind, p unsafe.Pointer, n int) Value {
	if n == 0 {
		return Value{kind: k}
	}
	return Value{kind: k, bits: uint64(n), p: p}
}

// Matrix returns a matrix Value. The matrix is not copied.
func Matrix(m *Mat) Value { return Value{kind: KindMat, p: unsafe.Pointer(m)} }

// Bool returns Int(1) or Int(0); MSL has no distinct boolean type, like C.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// The raw payload views below read p and bits as the named kind. Callers
// have checked the kind first.

func (v Value) int() int64   { return int64(v.bits) }
func (v Value) num() float64 { return math.Float64frombits(v.bits) }
func (v Value) str() string  { return unsafe.String((*byte)(v.p), int(v.bits)) }
func (v Value) byt() []byte  { return unsafe.Slice((*byte)(v.p), int(v.bits)) }
func (v Value) arr() []Value { return unsafe.Slice((*Value)(v.p), int(v.bits)) }
func (v Value) mat() *Mat    { return (*Mat)(v.p) }

// Kind reports the dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is the nil Value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsInt returns the value as an int64, truncating numbers.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return v.int()
	case KindNum:
		return int64(v.num())
	default:
		return 0
	}
}

// AsNum returns the value as a float64.
func (v Value) AsNum() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.int())
	case KindNum:
		return v.num()
	default:
		return 0
	}
}

// AsStr returns the string payload (empty for non-strings; use Format for a
// printable rendering of any value).
func (v Value) AsStr() string {
	if v.kind != KindStr {
		return ""
	}
	return v.str()
}

// AsBytes returns the byte payload, or nil. Its capacity is its length, so
// an append copies rather than writing past the block.
func (v Value) AsBytes() []byte {
	if v.kind != KindBytes {
		return nil
	}
	return v.byt()
}

// AsMat returns the matrix payload, or nil.
func (v Value) AsMat() *Mat {
	if v.kind != KindMat {
		return nil
	}
	return v.mat()
}

// IsNumeric reports whether the value is an int or num.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindNum }

// Truthy implements C-style truth: nonzero numbers, nonempty strings,
// arrays, byte blocks, and matrices are true.
func (v Value) Truthy() bool { return TruthyPtr(&v) }

// Len returns the element count for strings, byte blocks, and arrays, and
// Rows*Cols for matrices; 0 otherwise.
func (v Value) Len() int {
	switch v.kind {
	case KindStr, KindBytes, KindArr:
		return int(v.bits)
	case KindMat:
		if v.p == nil {
			return 0
		}
		return len(v.mat().Data)
	default:
		return 0
	}
}

// Index returns element i of an array, byte block (as int), or matrix (as
// num, flat row-major). It returns nil and false when out of range or the
// value is not indexable.
func (v Value) Index(i int) (Value, bool) {
	switch v.kind {
	case KindArr:
		if i < 0 || i >= int(v.bits) {
			return Nil(), false
		}
		return v.arr()[i], true
	case KindBytes:
		if i < 0 || i >= int(v.bits) {
			return Nil(), false
		}
		return Int(int64(v.byt()[i])), true
	case KindMat:
		if v.p == nil || i < 0 || i >= len(v.mat().Data) {
			return Nil(), false
		}
		return Num(v.mat().Data[i]), true
	case KindStr:
		if i < 0 || i >= int(v.bits) {
			return Nil(), false
		}
		return Int(int64(v.str()[i])), true
	default:
		return Nil(), false
	}
}

// SetIndex assigns element i in place for arrays, byte blocks, and matrices.
// It reports whether the assignment happened.
func (v Value) SetIndex(i int, x Value) bool {
	switch v.kind {
	case KindArr:
		if i < 0 || i >= int(v.bits) {
			return false
		}
		v.arr()[i] = x
		return true
	case KindBytes:
		if i < 0 || i >= int(v.bits) {
			return false
		}
		v.byt()[i] = byte(x.AsInt())
		return true
	case KindMat:
		if v.p == nil || i < 0 || i >= len(v.mat().Data) {
			return false
		}
		v.mat().Data[i] = x.AsNum()
		return true
	default:
		return false
	}
}

// Clone returns a deep copy. Messenger replication on multi-link hops uses
// this so each replica owns its Messenger-variable area.
func (v Value) Clone() Value {
	switch v.kind {
	case KindBytes:
		return Bytes(bytes.Clone(v.byt()))
	case KindArr:
		src := v.arr()
		a := make([]Value, len(src))
		for i := range src {
			a[i] = src[i].Clone()
		}
		return Arr(a)
	case KindMat:
		if v.p == nil {
			return v
		}
		return Matrix(v.mat().Clone())
	default:
		return v
	}
}

// Equal reports deep equality. Int and Num compare numerically.
func (v Value) Equal(o Value) bool {
	if eq, ok := FastEqual(&v, &o); ok {
		return eq
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindStr:
		return v.str() == o.str()
	case KindBytes:
		return bytes.Equal(v.byt(), o.byt())
	case KindArr:
		if v.bits != o.bits {
			return false
		}
		oa := o.arr()
		for i, e := range v.arr() {
			if !e.Equal(oa[i]) {
				return false
			}
		}
		return true
	case KindMat:
		a, b := v.mat(), o.mat()
		if a == nil || b == nil {
			return a == b
		}
		if a.Rows != b.Rows || a.Cols != b.Cols {
			return false
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders two numeric or string values: -1, 0, or +1. The second
// result is false when the values are not comparable.
func (v Value) Compare(o Value) (int, bool) {
	if c, ok := FastCompare(&v, &o); ok {
		return c, true
	}
	if v.kind == KindStr && o.kind == KindStr {
		return strings.Compare(v.str(), o.str()), true
	}
	return 0, false
}

// WireSize estimates the encoded size in bytes of the value. The simulated
// network charges transfer time by this size, so it approximates the codec's
// actual output (tag + payload).
func (v Value) WireSize() int {
	switch v.kind {
	case KindNil:
		return 1
	case KindInt, KindNum:
		return 9
	case KindStr, KindBytes:
		return 5 + int(v.bits)
	case KindArr:
		n := 5
		for _, e := range v.arr() {
			n += e.WireSize()
		}
		return n
	case KindMat:
		if v.p == nil {
			return 9
		}
		return 9 + 8*len(v.mat().Data)
	default:
		return 1
	}
}

// Format renders the value for printing from MSL scripts.
func (v Value) Format() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindNum:
		n := v.num()
		if n == math.Trunc(n) && math.Abs(n) < 1e15 {
			return strconv.FormatFloat(n, 'f', 1, 64)
		}
		return strconv.FormatFloat(n, 'g', -1, 64)
	case KindStr:
		return v.str()
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", v.bits)
	case KindArr:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.arr() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.Format())
		}
		b.WriteByte(']')
		return b.String()
	case KindMat:
		if v.p == nil {
			return "matrix(nil)"
		}
		return fmt.Sprintf("matrix(%dx%d)", v.mat().Rows, v.mat().Cols)
	default:
		return "?"
	}
}

// String implements fmt.Stringer with kind annotation, for debugging.
func (v Value) String() string {
	if v.kind == KindStr {
		return strconv.Quote(v.str())
	}
	return v.Format()
}

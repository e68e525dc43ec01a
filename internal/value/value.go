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
	"fmt"
	"math"
	"strconv"
	"strings"
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
type Value struct {
	kind  Kind
	i     int64
	n     float64
	s     string
	bytes []byte
	arr   []Value
	mat   *Mat
}

// Nil returns the nil Value.
func Nil() Value { return Value{} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Num returns a floating-point Value.
func Num(f float64) Value { return Value{kind: KindNum, n: f} }

// Str returns a string Value.
func Str(s string) Value { return Value{kind: KindStr, s: s} }

// Bytes returns a byte-block Value. The slice is not copied.
func Bytes(b []byte) Value { return Value{kind: KindBytes, bytes: b} }

// Arr returns an array Value. The slice is not copied.
func Arr(vs []Value) Value { return Value{kind: KindArr, arr: vs} }

// Matrix returns a matrix Value. The matrix is not copied.
func Matrix(m *Mat) Value { return Value{kind: KindMat, mat: m} }

// Bool returns Int(1) or Int(0); MSL has no distinct boolean type, like C.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// Kind reports the dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is the nil Value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsInt returns the value as an int64, truncating numbers.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindNum:
		return int64(v.n)
	default:
		return 0
	}
}

// AsNum returns the value as a float64.
func (v Value) AsNum() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindNum:
		return v.n
	default:
		return 0
	}
}

// AsStr returns the string payload (empty for non-strings; use Format for a
// printable rendering of any value).
func (v Value) AsStr() string { return v.s }

// AsBytes returns the byte payload, or nil.
func (v Value) AsBytes() []byte { return v.bytes }

// AsMat returns the matrix payload, or nil.
func (v Value) AsMat() *Mat { return v.mat }

// IsNumeric reports whether the value is an int or num.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindNum }

// Truthy implements C-style truth: nonzero numbers, nonempty strings,
// arrays, byte blocks, and matrices are true.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNil:
		return false
	case KindInt:
		return v.i != 0
	case KindNum:
		return v.n != 0
	case KindStr:
		return v.s != ""
	case KindBytes:
		return len(v.bytes) > 0
	case KindArr:
		return len(v.arr) > 0
	case KindMat:
		return v.mat != nil && len(v.mat.Data) > 0
	default:
		return false
	}
}

// Len returns the element count for strings, byte blocks, and arrays, and
// Rows*Cols for matrices; 0 otherwise.
func (v Value) Len() int {
	switch v.kind {
	case KindStr:
		return len(v.s)
	case KindBytes:
		return len(v.bytes)
	case KindArr:
		return len(v.arr)
	case KindMat:
		if v.mat == nil {
			return 0
		}
		return len(v.mat.Data)
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
		if i < 0 || i >= len(v.arr) {
			return Nil(), false
		}
		return v.arr[i], true
	case KindBytes:
		if i < 0 || i >= len(v.bytes) {
			return Nil(), false
		}
		return Int(int64(v.bytes[i])), true
	case KindMat:
		if v.mat == nil || i < 0 || i >= len(v.mat.Data) {
			return Nil(), false
		}
		return Num(v.mat.Data[i]), true
	case KindStr:
		if i < 0 || i >= len(v.s) {
			return Nil(), false
		}
		return Int(int64(v.s[i])), true
	default:
		return Nil(), false
	}
}

// SetIndex assigns element i in place for arrays, byte blocks, and matrices.
// It reports whether the assignment happened.
func (v Value) SetIndex(i int, x Value) bool {
	switch v.kind {
	case KindArr:
		if i < 0 || i >= len(v.arr) {
			return false
		}
		v.arr[i] = x
		return true
	case KindBytes:
		if i < 0 || i >= len(v.bytes) {
			return false
		}
		v.bytes[i] = byte(x.AsInt())
		return true
	case KindMat:
		if v.mat == nil || i < 0 || i >= len(v.mat.Data) {
			return false
		}
		v.mat.Data[i] = x.AsNum()
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
		b := make([]byte, len(v.bytes))
		copy(b, v.bytes)
		return Bytes(b)
	case KindArr:
		a := make([]Value, len(v.arr))
		for i := range v.arr {
			a[i] = v.arr[i].Clone()
		}
		return Arr(a)
	case KindMat:
		if v.mat == nil {
			return v
		}
		return Matrix(v.mat.Clone())
	default:
		return v
	}
}

// Equal reports deep equality. Int and Num compare numerically.
func (v Value) Equal(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i == o.i
		}
		return v.AsNum() == o.AsNum()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindStr:
		return v.s == o.s
	case KindBytes:
		if len(v.bytes) != len(o.bytes) {
			return false
		}
		for i := range v.bytes {
			if v.bytes[i] != o.bytes[i] {
				return false
			}
		}
		return true
	case KindArr:
		if len(v.arr) != len(o.arr) {
			return false
		}
		for i := range v.arr {
			if !v.arr[i].Equal(o.arr[i]) {
				return false
			}
		}
		return true
	case KindMat:
		if v.mat == nil || o.mat == nil {
			return v.mat == o.mat
		}
		if v.mat.Rows != o.mat.Rows || v.mat.Cols != o.mat.Cols {
			return false
		}
		for i := range v.mat.Data {
			if v.mat.Data[i] != o.mat.Data[i] {
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
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsNum(), o.AsNum()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind == KindStr && o.kind == KindStr {
		return strings.Compare(v.s, o.s), true
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
	case KindStr:
		return 5 + len(v.s)
	case KindBytes:
		return 5 + len(v.bytes)
	case KindArr:
		n := 5
		for _, e := range v.arr {
			n += e.WireSize()
		}
		return n
	case KindMat:
		if v.mat == nil {
			return 9
		}
		return 9 + 8*len(v.mat.Data)
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
		return strconv.FormatInt(v.i, 10)
	case KindNum:
		if v.n == math.Trunc(v.n) && math.Abs(v.n) < 1e15 {
			return strconv.FormatFloat(v.n, 'f', 1, 64)
		}
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case KindStr:
		return v.s
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.bytes))
	case KindArr:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.arr {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.Format())
		}
		b.WriteByte(']')
		return b.String()
	case KindMat:
		if v.mat == nil {
			return "matrix(nil)"
		}
		return fmt.Sprintf("matrix(%dx%d)", v.mat.Rows, v.mat.Cols)
	default:
		return "?"
	}
}

// String implements fmt.Stringer with kind annotation, for debugging.
func (v Value) String() string {
	if v.kind == KindStr {
		return strconv.Quote(v.s)
	}
	return v.Format()
}

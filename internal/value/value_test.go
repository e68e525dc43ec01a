package value

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueIsThreeWords pins the layout every stack slot, local and
// Messenger variable pays for on each copy: kind, payload bits, one pointer.
func TestValueIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// TestScalarOverReferenceReadsNoStaleState: an in-place scalar write keeps
// the old pointer word, and no accessor may hand it back.
func TestScalarOverReferenceReadsNoStaleState(t *testing.T) {
	for _, old := range []Value{Str("stale"), Bytes([]byte{1, 2}), Arr([]Value{Int(1)}), Matrix(NewMat(1, 1))} {
		for _, set := range []func(*Value){
			func(v *Value) { v.SetInt(1) },
			func(v *Value) { v.SetNum(1) },
			func(v *Value) { v.SetBool(true) },
		} {
			v := old
			set(&v)
			if v.AsStr() != "" || v.AsBytes() != nil || v.AsMat() != nil || v.Len() != 0 {
				t.Errorf("%v written over %v reads back str %q, bytes %v, mat %v, len %d",
					v, old, v.AsStr(), v.AsBytes(), v.AsMat(), v.Len())
			}
			if c := v.Clone(); !c.Equal(Int(1)) || c.WireSize() != 9 {
				t.Errorf("clone of %v written over %v is %v (wire size %d)", v, old, c, c.WireSize())
			}
		}
	}
}

// TestEmptyHasOneForm: a zero-length string, byte block or array stores no
// pointer, whatever slice it was made from.
func TestEmptyHasOneForm(t *testing.T) {
	buf := make([]byte, 4)
	vals := make([]Value, 4)
	for _, pair := range [][2]Value{
		{Str(""), Str("abc"[3:])},
		{Bytes(nil), Bytes(buf[4:])},
		{Arr(nil), Arr(vals[4:])},
	} {
		if pair[0] != pair[1] || pair[0].p != nil {
			t.Errorf("empty %v has two forms: %#v and %#v", pair[0].Kind(), pair[0], pair[1])
		}
	}
	if b := Bytes(buf[:2]).AsBytes(); cap(b) != 2 {
		t.Errorf("AsBytes capacity %d, want its length 2", cap(b))
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindNil, "nil"},
		{KindInt, "int"},
		{KindNum, "num"},
		{KindStr, "str"},
		{KindBytes, "bytes"},
		{KindArr, "array"},
		{KindMat, "matrix"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Nil().IsNil() {
		t.Error("Nil() should be nil")
	}
	if got := Int(42).AsInt(); got != 42 {
		t.Errorf("Int(42).AsInt() = %d", got)
	}
	if got := Int(42).AsNum(); got != 42.0 {
		t.Errorf("Int(42).AsNum() = %v", got)
	}
	if got := Num(2.5).AsInt(); got != 2 {
		t.Errorf("Num(2.5).AsInt() = %d, want 2 (truncation)", got)
	}
	if got := Str("hi").AsStr(); got != "hi" {
		t.Errorf("Str.AsStr() = %q", got)
	}
	if got := Bool(true); got.AsInt() != 1 {
		t.Errorf("Bool(true) = %v", got)
	}
	if got := Bool(false); got.AsInt() != 0 {
		t.Errorf("Bool(false) = %v", got)
	}
	if Nil().AsInt() != 0 || Nil().AsNum() != 0 {
		t.Error("nil numeric conversions should be 0")
	}
}

func TestTruthy(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		want bool
	}{
		{"nil", Nil(), false},
		{"zero int", Int(0), false},
		{"int", Int(3), true},
		{"neg int", Int(-1), true},
		{"zero num", Num(0), false},
		{"num", Num(0.1), true},
		{"empty str", Str(""), false},
		{"str", Str("x"), true},
		{"empty bytes", Bytes(nil), false},
		{"bytes", Bytes([]byte{0}), true},
		{"empty arr", Arr(nil), false},
		{"arr", Arr([]Value{Int(1)}), true},
		{"nil mat", Matrix(nil), false},
		{"empty mat", Matrix(NewMat(0, 0)), false},
		{"mat", Matrix(NewMat(1, 1)), true},
	}
	for _, tt := range tests {
		if got := tt.v.Truthy(); got != tt.want {
			t.Errorf("%s: Truthy() = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestIndexing(t *testing.T) {
	a := Arr([]Value{Int(10), Str("x")})
	if e, ok := a.Index(1); !ok || e.AsStr() != "x" {
		t.Errorf("arr index: got %v ok=%v", e, ok)
	}
	if _, ok := a.Index(2); ok {
		t.Error("arr index out of range should fail")
	}
	if _, ok := a.Index(-1); ok {
		t.Error("arr negative index should fail")
	}
	if !a.SetIndex(0, Int(99)) {
		t.Error("arr SetIndex failed")
	}
	if e, _ := a.Index(0); e.AsInt() != 99 {
		t.Error("arr SetIndex did not stick")
	}

	b := Bytes([]byte{1, 2, 3})
	if e, ok := b.Index(2); !ok || e.AsInt() != 3 {
		t.Errorf("bytes index: got %v ok=%v", e, ok)
	}
	if !b.SetIndex(0, Int(255)) {
		t.Error("bytes SetIndex failed")
	}
	if e, _ := b.Index(0); e.AsInt() != 255 {
		t.Error("bytes SetIndex did not stick")
	}

	m := NewMat(2, 2)
	m.Set(1, 1, 7)
	mv := Matrix(m)
	if e, ok := mv.Index(3); !ok || e.AsNum() != 7 {
		t.Errorf("mat index: got %v ok=%v", e, ok)
	}
	if !mv.SetIndex(0, Num(3.5)) || m.At(0, 0) != 3.5 {
		t.Error("mat SetIndex failed")
	}

	s := Str("ab")
	if e, ok := s.Index(1); !ok || e.AsInt() != 'b' {
		t.Errorf("str index: got %v ok=%v", e, ok)
	}
	if s.SetIndex(0, Int('z')) {
		t.Error("strings are immutable; SetIndex should fail")
	}
	if _, ok := Int(1).Index(0); ok {
		t.Error("ints are not indexable")
	}
}

func TestLen(t *testing.T) {
	tests := []struct {
		v    Value
		want int
	}{
		{Str("abc"), 3},
		{Bytes(make([]byte, 5)), 5},
		{Arr(make([]Value, 2)), 2},
		{Matrix(NewMat(2, 3)), 6},
		{Matrix(nil), 0},
		{Int(7), 0},
	}
	for _, tt := range tests {
		if got := tt.v.Len(); got != tt.want {
			t.Errorf("%v.Len() = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMat(1, 2)
	inner := Arr([]Value{Int(1)})
	orig := Arr([]Value{inner, Bytes([]byte{9}), Matrix(m)})
	cl := orig.Clone()

	orig.arr()[0].arr()[0] = Int(100)
	orig.arr()[1].AsBytes()[0] = 100
	m.Data[0] = 100

	if cl.arr()[0].arr()[0].AsInt() != 1 {
		t.Error("nested array not deep-copied")
	}
	if cl.arr()[1].AsBytes()[0] != 9 {
		t.Error("bytes not deep-copied")
	}
	if cl.arr()[2].AsMat().Data[0] != 0 {
		t.Error("matrix not deep-copied")
	}
}

func TestEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"int==int", Int(3), Int(3), true},
		{"int!=int", Int(3), Int(4), false},
		{"int==num", Int(3), Num(3.0), true},
		{"num!=int", Num(3.5), Int(3), false},
		{"nil==nil", Nil(), Nil(), true},
		{"nil!=int", Nil(), Int(0), false},
		{"str==str", Str("a"), Str("a"), true},
		{"str!=str", Str("a"), Str("b"), false},
		{"bytes==", Bytes([]byte{1, 2}), Bytes([]byte{1, 2}), true},
		{"bytes!=", Bytes([]byte{1, 2}), Bytes([]byte{1, 3}), false},
		{"bytes len", Bytes([]byte{1}), Bytes([]byte{1, 2}), false},
		{"arr==", Arr([]Value{Int(1), Str("x")}), Arr([]Value{Int(1), Str("x")}), true},
		{"arr!=", Arr([]Value{Int(1)}), Arr([]Value{Int(2)}), false},
		{"str!=int", Str("1"), Int(1), false},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%s: Equal = %v, want %v", tt.name, got, tt.want)
		}
	}

	m1, m2 := NewMat(2, 2), NewMat(2, 2)
	if !Matrix(m1).Equal(Matrix(m2)) {
		t.Error("equal matrices should be Equal")
	}
	m2.Data[3] = 1
	if Matrix(m1).Equal(Matrix(m2)) {
		t.Error("different matrices should not be Equal")
	}
	if Matrix(m1).Equal(Matrix(NewMat(1, 4))) {
		t.Error("different shapes should not be Equal")
	}
}

func TestCompare(t *testing.T) {
	if c, ok := Int(1).Compare(Num(2)); !ok || c != -1 {
		t.Errorf("1 vs 2: %d %v", c, ok)
	}
	if c, ok := Num(2).Compare(Int(2)); !ok || c != 0 {
		t.Errorf("2 vs 2: %d %v", c, ok)
	}
	if c, ok := Str("b").Compare(Str("a")); !ok || c != 1 {
		t.Errorf("b vs a: %d %v", c, ok)
	}
	if _, ok := Str("a").Compare(Int(1)); ok {
		t.Error("str vs int should not compare")
	}
	if _, ok := Arr(nil).Compare(Arr(nil)); ok {
		t.Error("arrays should not compare")
	}
}

func TestFormat(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Nil(), "nil"},
		{Int(-7), "-7"},
		{Num(2.0), "2.0"},
		{Num(2.5), "2.5"},
		{Str("hey"), "hey"},
		{Bytes(make([]byte, 3)), "bytes[3]"},
		{Arr([]Value{Int(1), Str("a")}), "[1, a]"},
		{Matrix(NewMat(2, 3)), "matrix(2x3)"},
		{Matrix(nil), "matrix(nil)"},
	}
	for _, tt := range tests {
		if got := tt.v.Format(); got != tt.want {
			t.Errorf("Format(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
	if got := Str("q").String(); got != `"q"` {
		t.Errorf("String() = %q", got)
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	vals := []Value{
		Nil(), Int(5), Num(math.Pi), Str("hello"), Bytes([]byte{1, 2, 3}),
		Arr([]Value{Int(1), Str("x"), Arr([]Value{Num(2)})}),
		Matrix(&Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}),
	}
	for _, v := range vals {
		enc, err := Append(nil, v)
		if err != nil {
			t.Fatalf("Append(%v): %v", v, err)
		}
		if got := v.WireSize(); got != len(enc) {
			t.Errorf("WireSize(%v) = %d, encoded len = %d", v, got, len(enc))
		}
	}
}

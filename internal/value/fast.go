// In-place numeric fast paths for the VM's threaded dispatch loop.
//
// A Value is three words: kind, a 64-bit payload, and one pointer (see
// Value). The numeric kinds live entirely in the first two, so the helpers
// here let the interpreter's hot handlers compute through *Value without
// materializing intermediate Values: an add writes kind and bits into an
// existing slot and leaves the pointer word alone, which takes no GC write
// barrier. They intentionally handle only the cases whose semantics are
// trivially identical to the general paths (arith in the VM, Compare/Equal
// here) and report ok=false otherwise — nil coercion, strings,
// div-by-zero errors and such stay on the one authoritative slow path.
//
// Writing a scalar kind over a slot that held a reference kind leaves the
// old pointer in place. Every accessor checks the kind, so nothing reads
// it back; it only extends the liveness of the old payload until the slot
// is overwritten again — the same retention an operand stack has below its
// stack pointer.
package value

import "math"

// NumOp selects the binary arithmetic operation for FastBinary.
type NumOp uint8

// The binary numeric operations, in the bytecode's arithmetic-block order.
const (
	NumAdd NumOp = iota
	NumSub
	NumMul
	NumDiv
	NumMod
)

// SetInt overwrites v in place with an integer.
func (v *Value) SetInt(i int64) { v.kind, v.bits = KindInt, uint64(i) }

// SetNum overwrites v in place with a float.
func (v *Value) SetNum(f float64) { v.kind, v.bits = KindNum, math.Float64bits(f) }

// SetBool overwrites v in place with Int(1) or Int(0).
func (v *Value) SetBool(b bool) {
	v.kind, v.bits = KindInt, 0
	if b {
		v.bits = 1
	}
}

// IntRaw returns the int payload without inspecting the kind tag. Only for
// callers holding a static proof that v is an Int (the bytecode kind-flow
// verifier plus the VM's snapshot admission checks); on any other kind the
// result is the other kind's payload bits.
func (v *Value) IntRaw() int64 { return int64(v.bits) }

// NumRaw is IntRaw for the float payload: proof-carrying callers only.
func (v *Value) NumRaw() float64 { return math.Float64frombits(v.bits) }

// FastBinary computes op(a, b) into *out when both operands are strictly
// numeric, returning false (out untouched) for anything the general arith
// path must handle: nil coercion, strings, non-numeric kinds, and integer
// division or modulo by zero (a runtime error there). out may alias a or b.
// Int/int stays int; mixed goes through float64 — exactly the general
// path's promotion rule, including float division by zero yielding ±Inf.
func FastBinary(op NumOp, a, b, out *Value) bool {
	if a.kind == KindInt && b.kind == KindInt {
		x, y := int64(a.bits), int64(b.bits)
		var r int64
		switch op {
		case NumAdd:
			r = x + y
		case NumSub:
			r = x - y
		case NumMul:
			r = x * y
		case NumDiv:
			if y == 0 {
				return false
			}
			r = x / y
		default:
			if y == 0 {
				return false
			}
			r = x % y
		}
		out.kind, out.bits = KindInt, uint64(r)
		return true
	}
	var x, y float64
	switch a.kind {
	case KindInt:
		x = float64(int64(a.bits))
	case KindNum:
		x = math.Float64frombits(a.bits)
	default:
		return false
	}
	switch b.kind {
	case KindInt:
		y = float64(int64(b.bits))
	case KindNum:
		y = math.Float64frombits(b.bits)
	default:
		return false
	}
	var r float64
	switch op {
	case NumAdd:
		r = x + y
	case NumSub:
		r = x - y
	case NumMul:
		r = x * y
	case NumDiv:
		r = x / y
	default:
		r = math.Mod(x, y)
	}
	out.kind, out.bits = KindNum, math.Float64bits(r)
	return true
}

// FastCompare orders two numeric values through pointers; ok=false sends
// string (and error) cases to Value.Compare. Like Compare, both operands
// go through float64 — int/int included — so the orderings agree bit for
// bit.
func FastCompare(a, b *Value) (cmp int, ok bool) {
	var x, y float64
	switch a.kind {
	case KindInt:
		x = float64(int64(a.bits))
	case KindNum:
		x = math.Float64frombits(a.bits)
	default:
		return 0, false
	}
	switch b.kind {
	case KindInt:
		y = float64(int64(b.bits))
	case KindNum:
		y = math.Float64frombits(b.bits)
	default:
		return 0, false
	}
	switch {
	case x < y:
		return -1, true
	case x > y:
		return 1, true
	default:
		return 0, true
	}
}

// FastEqual tests numeric equality through pointers; ok=false sends every
// non-numeric pairing to Value.Equal. Int/int compares exactly, mixed
// through float64 — Equal's own rule.
func FastEqual(a, b *Value) (eq bool, ok bool) {
	if a.kind == KindInt && b.kind == KindInt {
		return a.bits == b.bits, true
	}
	var x, y float64
	switch a.kind {
	case KindInt:
		x = float64(int64(a.bits))
	case KindNum:
		x = math.Float64frombits(a.bits)
	default:
		return false, false
	}
	switch b.kind {
	case KindInt:
		y = float64(int64(b.bits))
	case KindNum:
		y = math.Float64frombits(b.bits)
	default:
		return false, false
	}
	return x == y, true
}

// TruthyPtr is Value.Truthy through a pointer, for handlers that must not
// copy the Value just to test it.
func TruthyPtr(v *Value) bool {
	switch v.kind {
	case KindInt:
		return v.bits != 0
	case KindNum:
		return math.Float64frombits(v.bits) != 0
	case KindStr, KindBytes, KindArr:
		return v.bits != 0
	case KindMat:
		return v.p != nil && len(v.mat().Data) > 0
	default:
		return false
	}
}

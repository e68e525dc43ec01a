// Kind-specialized dispatch handlers: the proof-spending half of the
// bytecode kind-flow verifier (bytecode/kinds.go).
//
// Lowering under LowerKind swaps an instruction for a specialized variant
// only at source PCs where the verifier proved the operand kinds, and
// Restore re-checks every value a snapshot injects against the same
// proofs, so the handlers here read payloads directly (value.IntRaw /
// value.NumRaw) with no dynamic kind guard. Semantics must stay
// byte-identical to the switch oracle:
//
//   - ordered int/int comparisons promote both sides through float64,
//     exactly like value.Compare (Eq/Ne stay exact int64, like FastEqual);
//   - int division or modulo by a dynamic zero keeps the oracle's error
//     text and source PC, with the fused tail refunded like the generic
//     handlers (a zero *constant* divisor is never specialized at all);
//   - float division by zero yields ±Inf and float modulo goes through
//     math.Mod, matching the general arith path.
//
// Everything else — stream shape, step charges, profile counts, snapshot
// bytes — is inherited unchanged from the generic fused stream, which the
// differential harness enforces trace-for-trace.
package vm

import (
	"math"

	"messengers/internal/bytecode"
)

// registerSpecialized installs the handlers for the kind-specialized
// opcode block. Called from the init in threaded.go so registration is
// complete before the table's nil-handler check runs.
func registerSpecialized(h *[bytecode.NumDOps]dhandler) {
	ariths := [5]bytecode.Op{bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod}
	for i, op := range ariths {
		h[bytecode.DAddII+bytecode.DOp(i)] = specArithII(op)
		h[bytecode.DAddNN+bytecode.DOp(i)] = specArithNN(op)
		h[bytecode.DAddIN+bytecode.DOp(i)] = specArithIN(op)
		h[bytecode.DFConstAddNN+bytecode.DOp(i)] = specConstArithNN(op)
		h[bytecode.DFAddStoreMII+bytecode.DOp(i)] = specArithStoreII(op)
		h[bytecode.DFAddStoreMNN+bytecode.DOp(i)] = specArithStoreNN(op)
		h[bytecode.DFMCAddStoreMII+bytecode.DOp(i)] = specSlotArithStoreII(op)
		h[bytecode.DFLCAddStoreLII+bytecode.DOp(i)] = specLocalIncII(op)
	}
	h[bytecode.DFEqJzII] = func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		t.sp -= 2
		if a.IntRaw() != b.IntRaw() {
			t.dpc = int(d.A)
		}
		return true
	}
	h[bytecode.DFNeJzII] = func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		t.sp -= 2
		if a.IntRaw() == b.IntRaw() {
			t.dpc = int(d.A)
		}
		return true
	}
	cmps := [4]bytecode.Op{bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe}
	for i, op := range cmps {
		h[bytecode.DFLtJzII+bytecode.DOp(i)] = specCmpJzII(op)
		h[bytecode.DFMMLtJzII+bytecode.DOp(i)] = specSlotCmpJzII(op, false)
		h[bytecode.DFMCLtJzII+bytecode.DOp(i)] = specSlotCmpJzII(op, true)
	}
}

// specArithII: both stack operands proven Int. Add/Sub/Mul are guard-free;
// Div/Mod keep the dynamic zero check with the oracle's error text.
func specArithII(op bytecode.Op) dhandler {
	switch op {
	case bytecode.OpAdd:
		return func(t *texec, _ *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			a.SetInt(a.IntRaw() + b.IntRaw())
			t.sp--
			return true
		}
	case bytecode.OpSub:
		return func(t *texec, _ *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			a.SetInt(a.IntRaw() - b.IntRaw())
			t.sp--
			return true
		}
	case bytecode.OpMul:
		return func(t *texec, _ *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			a.SetInt(a.IntRaw() * b.IntRaw())
			t.sp--
			return true
		}
	case bytecode.OpDiv:
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			y := b.IntRaw()
			if y == 0 {
				t.sp -= 2
				return t.fail(d.Src, "integer division by zero")
			}
			a.SetInt(a.IntRaw() / y)
			t.sp--
			return true
		}
	default: // OpMod
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			y := b.IntRaw()
			if y == 0 {
				t.sp -= 2
				return t.fail(d.Src, "integer modulo by zero")
			}
			a.SetInt(a.IntRaw() % y)
			t.sp--
			return true
		}
	}
}

// specArithNN: both operands proven Num. No faults exist on this path —
// float division by zero is ±Inf and modulo is math.Mod, like the oracle.
func specArithNN(op bytecode.Op) dhandler {
	switch op {
	case bytecode.OpAdd:
		return func(t *texec, _ *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			a.SetNum(a.NumRaw() + b.NumRaw())
			t.sp--
			return true
		}
	case bytecode.OpSub:
		return func(t *texec, _ *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			a.SetNum(a.NumRaw() - b.NumRaw())
			t.sp--
			return true
		}
	case bytecode.OpMul:
		return func(t *texec, _ *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			a.SetNum(a.NumRaw() * b.NumRaw())
			t.sp--
			return true
		}
	case bytecode.OpDiv:
		return func(t *texec, _ *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			a.SetNum(a.NumRaw() / b.NumRaw())
			t.sp--
			return true
		}
	default: // OpMod
		return func(t *texec, _ *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			a.SetNum(math.Mod(a.NumRaw(), b.NumRaw()))
			t.sp--
			return true
		}
	}
}

// floatOp resolves the float transfer once per constructed handler.
func floatOp(op bytecode.Op) func(x, y float64) float64 {
	switch op {
	case bytecode.OpAdd:
		return func(x, y float64) float64 { return x + y }
	case bytecode.OpSub:
		return func(x, y float64) float64 { return x - y }
	case bytecode.OpMul:
		return func(x, y float64) float64 { return x * y }
	case bytecode.OpDiv:
		return func(x, y float64) float64 { return x / y }
	default: // OpMod
		return math.Mod
	}
}

// specArithIN: the lower operand proven Int, the top Num. Promotes through
// float64 like the general path; faultless.
func specArithIN(op bytecode.Op) dhandler {
	f := floatOp(op)
	return func(t *texec, _ *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		a.SetNum(f(float64(a.IntRaw()), b.NumRaw()))
		t.sp--
		return true
	}
}

// specConstArithNN: stack top and constant proven Num; faultless.
func specConstArithNN(op bytecode.Op) dhandler {
	f := floatOp(op)
	return func(t *texec, d *bytecode.DInstr) bool {
		a := &t.stack[t.sp-1]
		a.SetNum(f(a.NumRaw(), d.Val.NumRaw()))
		return true
	}
}

// specCmpJzII: ordered compare-and-branch over two proven ints. The
// promotion through float64 is deliberate — value.Compare orders int/int
// through float64, and the specialized stream must agree bit for bit.
func specCmpJzII(op bytecode.Op) dhandler {
	switch op {
	case bytecode.OpLt:
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			t.sp -= 2
			if !(float64(a.IntRaw()) < float64(b.IntRaw())) {
				t.dpc = int(d.A)
			}
			return true
		}
	case bytecode.OpLe:
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			t.sp -= 2
			if !(float64(a.IntRaw()) <= float64(b.IntRaw())) {
				t.dpc = int(d.A)
			}
			return true
		}
	case bytecode.OpGt:
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			t.sp -= 2
			if !(float64(a.IntRaw()) > float64(b.IntRaw())) {
				t.dpc = int(d.A)
			}
			return true
		}
	default: // OpGe
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			t.sp -= 2
			if !(float64(a.IntRaw()) >= float64(b.IntRaw())) {
				t.dpc = int(d.A)
			}
			return true
		}
	}
}

// specII reads the loop-head operands for a slot compare: Messenger slot A
// against slot B or the inline constant, both proven Int, already promoted.
func (t *texec) specII(d *bytecode.DInstr, constB bool) (x, y float64) {
	x = float64(t.m.vars[d.A].IntRaw())
	if constB {
		y = float64(d.Val.IntRaw())
	} else {
		y = float64(t.m.vars[d.B].IntRaw())
	}
	return x, y
}

// specSlotCmpJzII: the guard-free quad loop head — load, load-or-const,
// compare, branch — over proven ints. Nothing on this path can fault.
func specSlotCmpJzII(op bytecode.Op, constB bool) dhandler {
	switch op {
	case bytecode.OpLt:
		return func(t *texec, d *bytecode.DInstr) bool {
			if x, y := t.specII(d, constB); !(x < y) {
				t.dpc = int(d.C)
			}
			return true
		}
	case bytecode.OpLe:
		return func(t *texec, d *bytecode.DInstr) bool {
			if x, y := t.specII(d, constB); !(x <= y) {
				t.dpc = int(d.C)
			}
			return true
		}
	case bytecode.OpGt:
		return func(t *texec, d *bytecode.DInstr) bool {
			if x, y := t.specII(d, constB); !(x > y) {
				t.dpc = int(d.C)
			}
			return true
		}
	default: // OpGe
		return func(t *texec, d *bytecode.DInstr) bool {
			if x, y := t.specII(d, constB); !(x >= y) {
				t.dpc = int(d.C)
			}
			return true
		}
	}
}

// specArithStoreII: arithmetic over two proven-int stack operands stored
// straight into a Messenger slot. Div/Mod keep the dynamic zero check; the
// trailing store is refunded on fault exactly like the generic handler.
func specArithStoreII(op bytecode.Op) dhandler {
	switch op {
	case bytecode.OpAdd:
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			t.specStoreInt(d, a.IntRaw()+b.IntRaw())
			return true
		}
	case bytecode.OpSub:
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			t.specStoreInt(d, a.IntRaw()-b.IntRaw())
			return true
		}
	case bytecode.OpMul:
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			t.specStoreInt(d, a.IntRaw()*b.IntRaw())
			return true
		}
	case bytecode.OpDiv:
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			y := b.IntRaw()
			if y == 0 {
				t.sp -= 2
				t.refundLast(d)
				return t.fail(d.Src, "integer division by zero")
			}
			t.specStoreInt(d, a.IntRaw()/y)
			return true
		}
	default: // OpMod
		return func(t *texec, d *bytecode.DInstr) bool {
			a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
			y := b.IntRaw()
			if y == 0 {
				t.sp -= 2
				t.refundLast(d)
				return t.fail(d.Src, "integer modulo by zero")
			}
			t.specStoreInt(d, a.IntRaw()%y)
			return true
		}
	}
}

func (t *texec) specStoreInt(d *bytecode.DInstr, r int64) {
	t.sp -= 2
	t.m.vars[d.A].SetInt(r)
}

// specArithStoreNN: the proven-float arith-store; faultless.
func specArithStoreNN(op bytecode.Op) dhandler {
	f := floatOp(op)
	return func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		t.sp -= 2
		t.m.vars[d.A].SetNum(f(a.NumRaw(), b.NumRaw()))
		return true
	}
}

// specSlotArithStoreII: the guard-free quad increment — Messenger slot A ⊕
// constant into slot B — over proven ints. Div/Mod exist here only for
// nonzero constants (lowering refuses otherwise), so no variant can fault.
func specSlotArithStoreII(op bytecode.Op) dhandler {
	switch op {
	case bytecode.OpAdd:
		return func(t *texec, d *bytecode.DInstr) bool {
			t.m.vars[d.B].SetInt(t.m.vars[d.A].IntRaw() + d.Val.IntRaw())
			return true
		}
	case bytecode.OpSub:
		return func(t *texec, d *bytecode.DInstr) bool {
			t.m.vars[d.B].SetInt(t.m.vars[d.A].IntRaw() - d.Val.IntRaw())
			return true
		}
	case bytecode.OpMul:
		return func(t *texec, d *bytecode.DInstr) bool {
			t.m.vars[d.B].SetInt(t.m.vars[d.A].IntRaw() * d.Val.IntRaw())
			return true
		}
	case bytecode.OpDiv:
		return func(t *texec, d *bytecode.DInstr) bool {
			t.m.vars[d.B].SetInt(t.m.vars[d.A].IntRaw() / d.Val.IntRaw())
			return true
		}
	default: // OpMod
		return func(t *texec, d *bytecode.DInstr) bool {
			t.m.vars[d.B].SetInt(t.m.vars[d.A].IntRaw() % d.Val.IntRaw())
			return true
		}
	}
}

// specLocalIncII is specSlotArithStoreII over local slots A and B (the
// counter of a function's loop); likewise faultless.
func specLocalIncII(op bytecode.Op) dhandler {
	var f func(x, y int64) int64
	switch op {
	case bytecode.OpAdd:
		f = func(x, y int64) int64 { return x + y }
	case bytecode.OpSub:
		f = func(x, y int64) int64 { return x - y }
	case bytecode.OpMul:
		f = func(x, y int64) int64 { return x * y }
	case bytecode.OpDiv:
		f = func(x, y int64) int64 { return x / y }
	default: // OpMod
		f = func(x, y int64) int64 { return x % y }
	}
	return func(t *texec, d *bytecode.DInstr) bool {
		t.locals[d.B].SetInt(f(t.locals[d.A].IntRaw(), d.Val.IntRaw()))
		return true
	}
}

// Token-threaded dispatch: the verified fast path of the interpreter.
//
// The switch loop in vm.go re-decodes every instruction on every execution:
// a table lookup per Messenger-variable access, a constant clone per push,
// an append (with its capacity check) per stack write. For every program it
// runs the bytecode verifier has already proven every jump in range,
// every stack depth exact, and every nav statement at a boundary — so this
// file spends that proof. Execution runs over the program's lowered direct
// stream (bytecode.Lowered): one handler function per direct opcode, indexed
// from a flat table, operating on a flattened frame (locals, stack base+sp)
// with raw indexed stack access whose bounds the verifier guarantees.
//
// The switch loop remains authoritative: it is the oracle the differential
// tests compare against, and takes over mid-segment (a "tail") whenever the fast path would need a dynamic
// guard — most importantly when the next instruction's step cost N could
// straddle the step budget, so budget-exhaustion semantics, error text,
// and meter charges come from exactly one implementation.
//
// Invariants the handlers rely on (and the differential tests enforce):
//   - step accounting is per SOURCE instruction: a fused handler charges
//     its N constituents up front and, if an earlier constituent faults,
//     refunds the never-executed tail so meters and profiles match the
//     switch loop exactly;
//   - every resume point a snapshot can name (jump targets, successors of
//     pause opcodes) starts a direct instruction (lowering guarantees it);
//   - Messenger-variable operands are VarTable slots, so handlers work on
//     m.vars in place; only a plain store marks m.present, since no other
//     store can leave nil behind.
package vm

import (
	"fmt"

	"messengers/internal/bytecode"
	"messengers/internal/value"
)

// Dispatch selects the interpreter loop for a VM.
type Dispatch uint8

// Dispatch modes. Auto resolves to Specialized.
const (
	DispatchAuto Dispatch = iota
	// DispatchSwitch forces the classic switch interpreter (the oracle).
	DispatchSwitch
	// DispatchThreaded uses token-threaded dispatch without fusion.
	DispatchThreaded
	// DispatchFused uses token-threaded dispatch over the superinstruction
	// stream.
	DispatchFused
	// DispatchSpecialized runs the fused stream with kind-specialized
	// opcodes substituted wherever the bytecode verifier's kind-flow proofs
	// allow (specialized.go); handlers there skip the dynamic value.Kind()
	// guards the proof covers.
	DispatchSpecialized
)

// String names the mode (benchmark and test labels).
func (d Dispatch) String() string {
	switch d {
	case DispatchAuto:
		return "auto"
	case DispatchSwitch:
		return "switch"
	case DispatchThreaded:
		return "threaded"
	case DispatchFused:
		return "fused"
	case DispatchSpecialized:
		return "specialized"
	default:
		return fmt.Sprintf("dispatch(%d)", uint8(d))
	}
}

// SetDispatch pins the interpreter loop. The zero value (DispatchAuto)
// runs verified programs threaded+fused+kind-specialized; tests and
// benchmarks pin modes explicitly.
func (m *VM) SetDispatch(d Dispatch) { m.dispatch = d }

// texec is the threaded loop's flattened execution state: the top frame's
// fields live in locals/dpc/fn and the operand stack is a base slice plus an
// index (raw writes, no append). It is scratch state, rebuilt from the VM at
// segment start and flushed back at every exit; only the VM's own fields
// survive between segments.
type texec struct {
	m    *VM
	host Host
	prof *Profile
	low  *bytecode.Lowered

	code   []bytecode.DInstr
	fn     int
	dpc    int
	locals []value.Value
	stack  []value.Value
	sp     int

	steps *int64
	limit int64

	res  Result
	err  error
	done bool
}

// dhandler executes one direct instruction; returning false stops the
// dispatch loop (pause, error, or tail into the switch loop).
type dhandler func(*texec, *bytecode.DInstr) bool

var dhandlers [bytecode.NumDOps]dhandler

// dopCons caches each direct opcode's source constituents for profile
// accounting at source-instruction granularity (first d.N entries real).
var dopCons [bytecode.NumDOps][4]bytecode.Op

// run is the dispatch loop. Budget discipline: an instruction covering N
// source steps only executes if N fits the remaining allowance; otherwise
// the segment tails into the switch loop, which reproduces the exact
// budget-exhaustion behavior (rollback, error text, meter charge).
func (t *texec) run() {
	for {
		d := &t.code[t.dpc]
		n := int64(d.N)
		if t.limit > 0 && *t.steps+n > t.limit {
			t.tail()
			return
		}
		t.dpc++
		*t.steps += n
		if p := t.prof; p != nil {
			c := &dopCons[d.Op]
			for i := 0; i < int(d.N); i++ {
				p.Counts[c[i]]++
			}
		}
		if !dhandlers[d.Op](t, d) {
			return
		}
	}
}

// resumeSrc is the source PC of the next unexecuted instruction — what a
// snapshot must record so either loop can resume here.
func (t *texec) resumeSrc() int {
	if t.dpc < len(t.code) {
		return int(t.code[t.dpc].Src)
	}
	return len(t.m.prog.Funcs[t.fn].Code)
}

// flush writes the flattened frame and stack back to the VM with the top
// frame resuming at source PC src.
func (t *texec) flush(src int) {
	m := t.m
	m.stack = t.stack[:t.sp]
	m.stackBuf = t.stack
	top := &m.frames[len(m.frames)-1]
	top.fn = t.fn
	top.pc = src
	top.locals = t.locals
}

// tail hands the segment to the switch loop at the current source
// instruction; Run falls through into runSwitch with the cumulative step
// count intact.
func (t *texec) tail() {
	t.flush(t.resumeSrc())
	t.done = false
}

// pause ends the segment with a Result.
func (t *texec) pause(res Result) bool {
	t.flush(t.resumeSrc())
	res.Steps = *t.steps
	t.res = res
	t.done = true
	return false
}

// fail ends the segment with a runtime error positioned at source PC src,
// byte-identical to the switch loop's runtimeError (which reports pc-1
// after its fetch increment).
func (t *texec) fail(src int32, format string, args ...any) bool {
	fname := t.m.prog.Funcs[t.fn].Name
	t.err = fmt.Errorf("msl runtime (%s@%d in %s): %s", t.m.prog.Name, src, fname, fmt.Sprintf(format, args...))
	t.done = true
	t.flush(int(src) + 1)
	return false
}

// refundLast undoes the pre-charged final constituent of a fused sequence
// whose faulting constituent is second-to-last: the switch loop would
// never have fetched the trailing jz/store, so meters and profiles must
// not see it. (In every fused shape only the second-to-last constituent
// can fault — loads and const pushes cannot.)
func (t *texec) refundLast(d *bytecode.DInstr) {
	*t.steps--
	if p := t.prof; p != nil {
		p.Counts[dopCons[d.Op][d.N-1]]--
	}
}

// ensureStack grows the stack backing to hold at least n values. Called
// once per frame entry (the verifier bounds in-frame growth by MaxStack),
// never per push.
func (t *texec) ensureStack(n int) {
	if n <= cap(t.stack) {
		return
	}
	ns := make([]value.Value, n+n/2)
	copy(ns, t.stack[:t.sp])
	t.stack = ns
}

func (t *texec) push(v value.Value) {
	t.stack[t.sp] = v
	t.sp++
}

func (t *texec) pop() value.Value {
	t.sp--
	return t.stack[t.sp]
}

// runThreaded executes one segment on the fast path. Returns done=false
// when the segment must continue on the switch loop (budget tail, or a
// resume point the lowered stream cannot address — defensively impossible
// for snapshots lowering itself produced).
func (m *VM) runThreaded(host Host, low *bytecode.Lowered, limit int64, steps *int64) (Result, error, bool) {
	top := &m.frames[len(m.frames)-1]
	df := &low.Funcs[top.fn]
	if top.pc < 0 || top.pc >= len(df.S2D) || df.S2D[top.pc] < 0 {
		return Result{}, nil, false
	}
	t := m.tx
	if t == nil {
		t = &texec{}
		m.tx = t
	}
	t.m, t.host, t.prof, t.low = m, host, m.prof, low
	t.steps, t.limit = steps, limit
	t.err, t.done = nil, false

	// Stack: adopt the VM's operand stack into the raw backing; in-frame
	// growth is bounded by the verifier's MaxStack, checked once here and
	// once per call.
	need := len(m.stack) + m.prog.MaxStack(top.fn)
	if cap(m.stackBuf) < need {
		buf := m.arena.Values(need)
		copy(buf, m.stack)
		m.stackBuf = buf
	} else if len(m.stack) > 0 && &m.stackBuf[0] != &m.stack[0] {
		copy(m.stackBuf[:len(m.stack)], m.stack)
	}
	t.stack = m.stackBuf[:cap(m.stackBuf)]
	t.sp = len(m.stack)

	t.fn = top.fn
	t.dpc = int(df.S2D[top.pc])
	t.locals = top.locals
	t.code = df.Code

	t.run()

	if t.done {
		if t.err != nil {
			// t.res may hold a previous segment's pause; errors return the
			// zero Result like the switch loop.
			return Result{}, t.err, true
		}
		return t.res, nil, true
	}
	return Result{}, nil, false
}

func init() {
	h := &dhandlers
	h[bytecode.DNop] = func(*texec, *bytecode.DInstr) bool { return true }
	h[bytecode.DConst] = func(t *texec, d *bytecode.DInstr) bool {
		t.push(d.Val)
		return true
	}
	h[bytecode.DConstClone] = func(t *texec, d *bytecode.DInstr) bool {
		t.push(d.Val.Clone())
		return true
	}
	h[bytecode.DLoadM] = func(t *texec, d *bytecode.DInstr) bool {
		t.push(t.m.vars[d.A])
		return true
	}
	h[bytecode.DStoreM] = func(t *texec, d *bytecode.DInstr) bool {
		t.m.vars[d.A], t.m.present[d.A] = t.pop(), true
		return true
	}
	h[bytecode.DLoadN] = func(t *texec, d *bytecode.DInstr) bool {
		t.push(t.host.NodeVar(d.Name))
		return true
	}
	h[bytecode.DStoreN] = func(t *texec, d *bytecode.DInstr) bool {
		t.host.SetNodeVar(d.Name, t.pop())
		return true
	}
	h[bytecode.DLoadNet] = func(t *texec, d *bytecode.DInstr) bool {
		v, ok := t.host.NetVar(d.Name)
		if !ok {
			return t.fail(d.Src, "unknown network variable $%s", d.Name)
		}
		t.push(v)
		return true
	}
	h[bytecode.DLoadL] = func(t *texec, d *bytecode.DInstr) bool {
		t.push(t.locals[d.A])
		return true
	}
	h[bytecode.DStoreL] = func(t *texec, d *bytecode.DInstr) bool {
		t.locals[d.A] = t.pop()
		return true
	}
	h[bytecode.DPop] = func(t *texec, _ *bytecode.DInstr) bool {
		t.sp--
		return true
	}
	h[bytecode.DDup] = func(t *texec, _ *bytecode.DInstr) bool {
		t.stack[t.sp] = t.stack[t.sp-1]
		t.sp++
		return true
	}
	h[bytecode.DDup2] = func(t *texec, _ *bytecode.DInstr) bool {
		t.stack[t.sp] = t.stack[t.sp-2]
		t.stack[t.sp+1] = t.stack[t.sp-1]
		t.sp += 2
		return true
	}
	h[bytecode.DAdd] = arithHandler(bytecode.OpAdd)
	h[bytecode.DSub] = arithHandler(bytecode.OpSub)
	h[bytecode.DMul] = arithHandler(bytecode.OpMul)
	h[bytecode.DDiv] = arithHandler(bytecode.OpDiv)
	h[bytecode.DMod] = arithHandler(bytecode.OpMod)
	h[bytecode.DNeg] = func(t *texec, d *bytecode.DInstr) bool {
		a := &t.stack[t.sp-1]
		switch a.Kind() {
		case value.KindInt:
			a.SetInt(-a.AsInt())
		case value.KindNum:
			a.SetNum(-a.AsNum())
		default:
			t.sp--
			return t.fail(d.Src, "cannot negate %v", a.Kind())
		}
		return true
	}
	h[bytecode.DNot] = func(t *texec, _ *bytecode.DInstr) bool {
		a := &t.stack[t.sp-1]
		a.SetBool(!value.TruthyPtr(a))
		return true
	}
	h[bytecode.DEq] = func(t *texec, _ *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		if eq, ok := value.FastEqual(a, b); ok {
			a.SetBool(eq)
			t.sp--
			return true
		}
		bv, av := t.pop(), t.pop()
		t.push(value.Bool(av.Equal(bv)))
		return true
	}
	h[bytecode.DNe] = func(t *texec, _ *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		if eq, ok := value.FastEqual(a, b); ok {
			a.SetBool(!eq)
			t.sp--
			return true
		}
		bv, av := t.pop(), t.pop()
		t.push(value.Bool(!av.Equal(bv)))
		return true
	}
	h[bytecode.DLt] = cmpHandler(bytecode.OpLt)
	h[bytecode.DLe] = cmpHandler(bytecode.OpLe)
	h[bytecode.DGt] = cmpHandler(bytecode.OpGt)
	h[bytecode.DGe] = cmpHandler(bytecode.OpGe)
	h[bytecode.DJmp] = func(t *texec, d *bytecode.DInstr) bool {
		t.dpc = int(d.A)
		return true
	}
	h[bytecode.DJz] = func(t *texec, d *bytecode.DInstr) bool {
		t.sp--
		if !value.TruthyPtr(&t.stack[t.sp]) {
			t.dpc = int(d.A)
		}
		return true
	}
	h[bytecode.DIndex] = func(t *texec, d *bytecode.DInstr) bool {
		idx, base := t.pop(), t.pop()
		if !idx.IsNumeric() {
			return t.fail(d.Src, "index must be numeric, got %v", idx.Kind())
		}
		v, ok := base.Index(int(idx.AsInt()))
		if !ok {
			return t.fail(d.Src, "index %d out of range for %v of length %d", idx.AsInt(), base.Kind(), base.Len())
		}
		t.push(v)
		return true
	}
	h[bytecode.DSetIndex] = func(t *texec, d *bytecode.DInstr) bool {
		val, idx, base := t.pop(), t.pop(), t.pop()
		if !idx.IsNumeric() {
			return t.fail(d.Src, "index must be numeric, got %v", idx.Kind())
		}
		if !base.SetIndex(int(idx.AsInt()), val) {
			return t.fail(d.Src, "cannot set index %d on %v of length %d", idx.AsInt(), base.Kind(), base.Len())
		}
		if d.B != 0 {
			t.push(val)
		}
		return true
	}
	h[bytecode.DArr] = func(t *texec, d *bytecode.DInstr) bool {
		n := int(d.A)
		elems := make([]value.Value, n)
		copy(elems, t.stack[t.sp-n:t.sp])
		t.sp -= n
		t.push(value.Arr(elems))
		return true
	}
	h[bytecode.DCallFunc] = func(t *texec, d *bytecode.DInstr) bool {
		m := t.m
		if len(m.frames) >= maxCallDepth {
			return t.fail(d.Src, "call depth exceeds %d (infinite recursion?)", maxCallDepth)
		}
		fi, argc := int(d.A), int(d.B)
		callee := &m.prog.Funcs[fi]
		locals := m.arena.Values(callee.NumLocals)
		copy(locals, t.stack[t.sp-argc:t.sp])
		t.sp -= argc
		top := &m.frames[len(m.frames)-1]
		top.fn = t.fn
		top.pc = t.resumeSrc()
		top.locals = t.locals
		m.frames = append(m.frames, frame{fn: fi, locals: locals})
		t.fn, t.locals = fi, locals
		t.code = t.low.Funcs[fi].Code
		t.dpc = 0
		t.ensureStack(t.sp + m.prog.MaxStack(fi))
		return true
	}
	h[bytecode.DRet] = func(t *texec, d *bytecode.DInstr) bool {
		m := t.m
		if len(m.frames) == 1 {
			return t.pause(Result{Pause: PauseEnd})
		}
		ret := t.pop()
		m.frames = m.frames[:len(m.frames)-1]
		top := &m.frames[len(m.frames)-1]
		df := &t.low.Funcs[top.fn]
		dpc := df.S2D[top.pc]
		t.push(ret)
		if dpc < 0 {
			// Unmappable resume point — cannot occur for streams this pass
			// produced (call successors always start an instruction), but a
			// bail keeps the invariant local instead of trusting it here.
			t.flush(top.pc)
			t.done = false
			return false
		}
		t.fn, t.locals = top.fn, top.locals
		t.code = df.Code
		t.dpc = int(dpc)
		// The caller's frame may grow the stack beyond what was ensured
		// for the callee (e.g. resuming a restored snapshot mid-call).
		t.ensureStack(t.sp + m.prog.MaxStack(top.fn))
		return true
	}
	h[bytecode.DCallNative] = func(t *texec, d *bytecode.DInstr) bool {
		argc := int(d.B)
		if d.A >= 0 {
			// Builtins never touch VM state (they see only their args and
			// the host), so they run against a stack window with no copy.
			args := t.stack[t.sp-argc : t.sp : t.sp]
			r, err := builtins[d.A].fn(t.m, t.host, args)
			if err != nil {
				return t.fail(d.Src, "%s: %v", d.Name, err)
			}
			t.sp -= argc
			t.push(r)
			return true
		}
		args := make([]value.Value, argc)
		copy(args, t.stack[t.sp-argc:t.sp])
		t.sp -= argc
		return t.pause(Result{Pause: PauseNative, Native: d.Name, Args: args})
	}
	h[bytecode.DHop] = navHandler(PauseHop)
	h[bytecode.DDelete] = navHandler(PauseDelete)
	h[bytecode.DCreate] = func(t *texec, d *bytecode.DInstr) bool {
		arms := make([]NavArm, d.A)
		for i := int(d.A) - 1; i >= 0; i-- {
			arms[i].DDir = t.pop()
			arms[i].DL = t.pop()
			arms[i].DN = t.pop()
			arms[i].LDir = t.pop()
			arms[i].LL = t.pop()
			arms[i].LN = t.pop()
		}
		return t.pause(Result{Pause: PauseCreate, Arms: arms, All: d.B != 0})
	}
	h[bytecode.DSchedAbs] = schedHandler(PauseSchedAbs)
	h[bytecode.DSchedDlt] = schedHandler(PauseSchedDlt)
	h[bytecode.DEnd] = func(t *texec, _ *bytecode.DInstr) bool {
		return t.pause(Result{Pause: PauseEnd})
	}

	// Fused superinstructions.
	h[bytecode.DFConstAdd] = constArithHandler(bytecode.OpAdd)
	h[bytecode.DFConstSub] = constArithHandler(bytecode.OpSub)
	h[bytecode.DFConstMul] = constArithHandler(bytecode.OpMul)
	h[bytecode.DFConstDiv] = constArithHandler(bytecode.OpDiv)
	h[bytecode.DFConstMod] = constArithHandler(bytecode.OpMod)
	h[bytecode.DFLoadMConst] = func(t *texec, d *bytecode.DInstr) bool {
		t.stack[t.sp] = t.m.vars[d.A]
		t.stack[t.sp+1] = d.Val
		t.sp += 2
		return true
	}
	h[bytecode.DFLoadLConst] = func(t *texec, d *bytecode.DInstr) bool {
		t.stack[t.sp] = t.locals[d.A]
		t.stack[t.sp+1] = d.Val
		t.sp += 2
		return true
	}
	h[bytecode.DFLoadMM] = func(t *texec, d *bytecode.DInstr) bool {
		t.stack[t.sp] = t.m.vars[d.A]
		t.stack[t.sp+1] = t.m.vars[d.B]
		t.sp += 2
		return true
	}
	h[bytecode.DFLoadLL] = func(t *texec, d *bytecode.DInstr) bool {
		t.stack[t.sp] = t.locals[d.A]
		t.stack[t.sp+1] = t.locals[d.B]
		t.sp += 2
		return true
	}
	h[bytecode.DFEqJz] = func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		t.sp -= 2
		var eq bool
		if fe, ok := value.FastEqual(a, b); ok {
			eq = fe
		} else {
			eq = a.Equal(*b)
		}
		if !eq {
			t.dpc = int(d.A)
		}
		return true
	}
	h[bytecode.DFNeJz] = func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		t.sp -= 2
		var eq bool
		if fe, ok := value.FastEqual(a, b); ok {
			eq = fe
		} else {
			eq = a.Equal(*b)
		}
		if eq {
			t.dpc = int(d.A)
		}
		return true
	}
	h[bytecode.DFLtJz] = cmpJzHandler(bytecode.OpLt)
	h[bytecode.DFLeJz] = cmpJzHandler(bytecode.OpLe)
	h[bytecode.DFGtJz] = cmpJzHandler(bytecode.OpGt)
	h[bytecode.DFGeJz] = cmpJzHandler(bytecode.OpGe)
	// Quad superinstructions: whole loop idioms with zero stack traffic.
	cmps := [4]bytecode.Op{bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe}
	for i, op := range cmps {
		h[bytecode.DFMMLtJz+bytecode.DOp(i)] = slotCmpJzHandler(op, false)
		h[bytecode.DFMCLtJz+bytecode.DOp(i)] = slotCmpJzHandler(op, true)
		h[bytecode.DFLCLtJz+bytecode.DOp(i)] = localCmpJzHandler(op)
	}
	ariths := [5]bytecode.Op{bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod}
	for i, op := range ariths {
		h[bytecode.DFAddStoreM+bytecode.DOp(i)] = arithStoreHandler(op)
		h[bytecode.DFAddStoreL+bytecode.DOp(i)] = localArithStoreHandler(op)
		h[bytecode.DFMCAddStoreM+bytecode.DOp(i)] = slotArithStoreHandler(op)
		h[bytecode.DFLCAddStoreL+bytecode.DOp(i)] = localIncHandler(op)
	}

	registerSpecialized(h)

	for op := bytecode.DOp(0); op < bytecode.NumDOps; op++ {
		if dhandlers[op] == nil {
			panic(fmt.Sprintf("vm: no handler for direct opcode %v", op))
		}
		ops, n := op.Constituents()
		for i := 0; i < n; i++ {
			dopCons[op][i] = ops[i]
		}
	}
}

// numOp maps the bytecode arithmetic block onto value.NumOp for the
// in-place fast paths. Resolved once per handler construction.
func numOp(op bytecode.Op) value.NumOp {
	switch op {
	case bytecode.OpAdd:
		return value.NumAdd
	case bytecode.OpSub:
		return value.NumSub
	case bytecode.OpMul:
		return value.NumMul
	case bytecode.OpDiv:
		return value.NumDiv
	case bytecode.OpMod:
		return value.NumMod
	default:
		panic(fmt.Sprintf("vm: %v is not a binary arithmetic opcode", op))
	}
}

func arithHandler(op bytecode.Op) dhandler {
	nop := numOp(op)
	return func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		if value.FastBinary(nop, a, b, a) {
			t.sp--
			return true
		}
		bv, av := t.pop(), t.pop()
		r, err := arith(op, av, bv)
		if err != nil {
			return t.fail(d.Src, "%v", err)
		}
		t.push(r)
		return true
	}
}

func evalCmp(op bytecode.Op, cmp int) bool {
	switch op {
	case bytecode.OpLt:
		return cmp < 0
	case bytecode.OpLe:
		return cmp <= 0
	case bytecode.OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

func cmpHandler(op bytecode.Op) dhandler {
	return func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		if cmp, ok := value.FastCompare(a, b); ok {
			a.SetBool(evalCmp(op, cmp))
			t.sp--
			return true
		}
		bv, av := t.pop(), t.pop()
		cmp, ok := av.Compare(bv)
		if !ok {
			return t.fail(d.Src, "cannot compare %v with %v", av.Kind(), bv.Kind())
		}
		t.push(value.Bool(evalCmp(op, cmp)))
		return true
	}
}

// cmpJzHandler fuses an ordered comparison with the conditional branch of
// a loop head. A comparison fault is a first-constituent error: the jz was
// pre-charged but never reached.
func cmpJzHandler(op bytecode.Op) dhandler {
	return func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		if cmp, ok := value.FastCompare(a, b); ok {
			t.sp -= 2
			if !evalCmp(op, cmp) {
				t.dpc = int(d.A)
			}
			return true
		}
		bv, av := t.pop(), t.pop()
		cmp, ok := av.Compare(bv)
		if !ok {
			t.refundLast(d)
			return t.fail(d.Src, "cannot compare %v with %v", av.Kind(), bv.Kind())
		}
		if !evalCmp(op, cmp) {
			t.dpc = int(d.A)
		}
		return true
	}
}

// constArithHandler fuses a constant push with the arithmetic consuming
// it. The constant is never materialized on the stack; a fault is a
// second-constituent error (the push itself cannot fail), reported at the
// arithmetic's source PC.
func constArithHandler(op bytecode.Op) dhandler {
	nop := numOp(op)
	return func(t *texec, d *bytecode.DInstr) bool {
		a := &t.stack[t.sp-1]
		if value.FastBinary(nop, a, &d.Val, a) {
			return true
		}
		av := t.pop()
		r, err := arith(op, av, d.Val)
		if err != nil {
			return t.fail(d.Src+1, "%v", err)
		}
		t.push(r)
		return true
	}
}

// arithStoreHandler fuses arithmetic with the Messenger-variable store
// consuming its result. An arithmetic fault is a first-constituent error.
func arithStoreHandler(op bytecode.Op) dhandler {
	nop := numOp(op)
	return func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		if value.FastBinary(nop, a, b, &t.m.vars[d.A]) {
			t.sp -= 2
			return true
		}
		bv, av := t.pop(), t.pop()
		r, err := arith(op, av, bv)
		if err != nil {
			t.refundLast(d)
			return t.fail(d.Src, "%v", err)
		}
		t.m.vars[d.A] = r
		return true
	}
}

// localArithStoreHandler is arithStoreHandler into local slot A.
func localArithStoreHandler(op bytecode.Op) dhandler {
	nop := numOp(op)
	return func(t *texec, d *bytecode.DInstr) bool {
		a, b := &t.stack[t.sp-2], &t.stack[t.sp-1]
		if value.FastBinary(nop, a, b, &t.locals[d.A]) {
			t.sp -= 2
			return true
		}
		bv, av := t.pop(), t.pop()
		r, err := arith(op, av, bv)
		if err != nil {
			t.refundLast(d)
			return t.fail(d.Src, "%v", err)
		}
		t.locals[d.A] = r
		return true
	}
}

// slotCmpJzHandler executes a whole loop head — load Messenger slot A, load
// slot B or constant Val, ordered compare, branch to C when false — in one
// dispatch with no stack traffic. The compare is the only constituent that
// can fault (third of four: two loads executed, trailing jz refunded).
func slotCmpJzHandler(op bytecode.Op, constB bool) dhandler {
	return func(t *texec, d *bytecode.DInstr) bool {
		a := &t.m.vars[d.A]
		b := &d.Val
		if !constB {
			b = &t.m.vars[d.B]
		}
		cmp, ok := value.FastCompare(a, b)
		if !ok {
			cmp, ok = a.Compare(*b)
			if !ok {
				t.refundLast(d)
				return t.fail(d.Src+2, "cannot compare %v with %v", a.Kind(), b.Kind())
			}
		}
		if !evalCmp(op, cmp) {
			t.dpc = int(d.C)
		}
		return true
	}
}

// localCmpJzHandler is slotCmpJzHandler for local slot A against constant
// Val.
func localCmpJzHandler(op bytecode.Op) dhandler {
	return func(t *texec, d *bytecode.DInstr) bool {
		a := &t.locals[d.A]
		cmp, ok := value.FastCompare(a, &d.Val)
		if !ok {
			cmp, ok = a.Compare(d.Val)
			if !ok {
				t.refundLast(d)
				return t.fail(d.Src+2, "cannot compare %v with %v", a.Kind(), d.Val.Kind())
			}
		}
		if !evalCmp(op, cmp) {
			t.dpc = int(d.C)
		}
		return true
	}
}

// slotArithStoreHandler executes the increment idiom — Messenger slot A ⊕
// constant Val stored into slot B — in one dispatch. The arithmetic is the
// only faulting constituent (third of four; the trailing store is refunded).
func slotArithStoreHandler(op bytecode.Op) dhandler {
	nop := numOp(op)
	return func(t *texec, d *bytecode.DInstr) bool {
		a := &t.m.vars[d.A]
		if value.FastBinary(nop, a, &d.Val, &t.m.vars[d.B]) {
			return true
		}
		r, err := arith(op, *a, d.Val)
		if err != nil {
			t.refundLast(d)
			return t.fail(d.Src+2, "%v", err)
		}
		t.m.vars[d.B] = r
		return true
	}
}

// localIncHandler is slotArithStoreHandler over local slots A and B.
func localIncHandler(op bytecode.Op) dhandler {
	nop := numOp(op)
	return func(t *texec, d *bytecode.DInstr) bool {
		a := &t.locals[d.A]
		if value.FastBinary(nop, a, &d.Val, &t.locals[d.B]) {
			return true
		}
		r, err := arith(op, *a, d.Val)
		if err != nil {
			t.refundLast(d)
			return t.fail(d.Src+2, "%v", err)
		}
		t.locals[d.B] = r
		return true
	}
}

func navHandler(p Pause) dhandler {
	return func(t *texec, d *bytecode.DInstr) bool {
		arms := make([]NavArm, d.A)
		for i := int(d.A) - 1; i >= 0; i-- {
			arms[i].LDir = t.pop()
			arms[i].LL = t.pop()
			arms[i].LN = t.pop()
		}
		return t.pause(Result{Pause: p, Arms: arms})
	}
}

func schedHandler(p Pause) dhandler {
	return func(t *texec, d *bytecode.DInstr) bool {
		v := t.pop()
		if !v.IsNumeric() {
			return t.fail(d.Src, "scheduling time must be numeric, got %v", v.Kind())
		}
		return t.pause(Result{Pause: p, Time: v.AsNum()})
	}
}

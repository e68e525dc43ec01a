package bytecode

import (
	"fmt"
	"slices"
)

// maxNavArms bounds the destination arms of one navigational statement.
// The verifier enforces it, which in turn bounds the operand stack a nav
// statement may require (6 values per arm for create).
const maxNavArms = 1 << 10

// maxStackDepth bounds the operand stack depth the verifier will accept at
// any program point. vm/snapshot.go serializes the whole operand stack on
// every hop, so a static bound here is a static bound on snapshot size
// growth per frame. Nav statements need at most 6*maxNavArms slots; the
// rest of the headroom is for expressions.
const maxStackDepth = 1 << 15

// maxLocals bounds a function's declared local count. The VM allocates a
// frame's locals eagerly on entry (and New allocates the main frame before
// a single instruction runs), so an unchecked header field here would let
// a decoded program demand gigabytes before the step budget can intervene.
const maxLocals = 1 << 12

// unreachable marks a PC never visited by the abstract interpretation.
const unreachable = -1

// funcMeta is the verifier's result for one function: the operand stack
// depth (relative to function entry) on entry to every PC, and the maximum
// depth reached. It is derived, never serialized — a decoded program is
// re-verified, so meta cannot be forged over the wire.
type funcMeta struct {
	depth []int32
	max   int32
	// kinds holds the abstract kind state (see kinds.go) on entry to every
	// PC. nil when the function passed the footprint cap (maxKindCells):
	// consumers then read every reachable slot as ⊤.
	kinds []kstate
}

// Verified reports whether this program has passed Validate since it was
// last constructed. Compiled programs (compile.CompileScript) and decoded
// programs (Decode) are always verified; the VM relies on this to skip
// dynamic PC bounds checks, and Restore uses the stack-depth metadata to
// prove a snapshot is consistent before resuming it.
func (p *Program) Verified() bool { return p.verified }

// StackDepth returns the verifier-inferred operand stack depth (relative
// to function entry) on entry to Funcs[fn].Code[pc], or -1 when the
// program is unverified, the location is out of range, or the instruction
// is unreachable.
func (p *Program) StackDepth(fn, pc int) int {
	if !p.verified || fn < 0 || fn >= len(p.meta) {
		return unreachable
	}
	d := p.meta[fn].depth
	if pc < 0 || pc >= len(d) {
		return unreachable
	}
	return int(d[pc])
}

// MaxStack returns the maximum operand stack depth function fn can add
// beyond its entry depth, or -1 when unverified or out of range.
func (p *Program) MaxStack(fn int) int {
	if !p.verified || fn < 0 || fn >= len(p.meta) {
		return -1
	}
	return int(p.meta[fn].max)
}

// Validate checks every instruction's operands against the program's
// pools and code bounds, then runs one abstract interpretation over each
// function's control-flow graph. It proves the value kinds kinds.go
// describes and the stack discipline the VM and the snapshot format rely
// on:
//
//   - every reachable PC has exactly one stack depth across all paths
//     (no unbalanced branch merges),
//   - no instruction pops below the function's entry depth (no underflow,
//     including OpCallNative argc against the current depth),
//   - the depth never exceeds maxStackDepth (snapshots stay bounded),
//   - control cannot fall off the end of the code,
//   - OpHop/OpDelete/OpCreate occur only at statement boundaries: after
//     popping their arms the residual stack is exactly the entry depth,
//     so a snapshot taken at any hop resumes with a statically known
//     operand stack and is restorable by construction.
//
// Programs arriving over the wire (registry broadcasts, carried code) are
// validated before execution so a corrupt or hostile program yields an
// error instead of a daemon crash. On success the program is marked
// Verified and carries per-PC depth and kind metadata.
func (p *Program) Validate() error {
	p.verified = false
	p.meta = nil
	p.resetLowered()
	p.hash.Store(nil)
	if len(p.Funcs) == 0 {
		return fmt.Errorf("bytecode: program %q has no main body", p.Name)
	}
	for fi := range p.Funcs {
		if err := p.validateOperands(fi); err != nil {
			return err
		}
	}
	p.vars = p.buildVarTable()
	meta := make([]funcMeta, len(p.Funcs))
	for fi := range p.Funcs {
		m, err := p.analyze(fi)
		if err != nil {
			return err
		}
		meta[fi] = m
	}
	// With every function's depths proven, reject the programs that
	// provably kind-fault (kinds.go).
	for fi := range p.Funcs {
		if err := p.rejectFaults(&p.Funcs[fi], &meta[fi]); err != nil {
			return err
		}
	}
	p.meta = meta
	p.verified = true
	return nil
}

// validateOperands is the structural pass: per-instruction operand bounds
// against the constant/name/function pools and the code length.
func (p *Program) validateOperands(fi int) error {
	f := &p.Funcs[fi]
	if f.NumParams < 0 || f.NumLocals < 0 || f.NumParams > f.NumLocals {
		return fmt.Errorf("bytecode: %s: params %d / locals %d invalid", f.Name, f.NumParams, f.NumLocals)
	}
	if f.NumLocals > maxLocals {
		return fmt.Errorf("bytecode: %s: %d locals exceeds the limit of %d", f.Name, f.NumLocals, maxLocals)
	}
	if len(f.Code) == 0 {
		return fmt.Errorf("bytecode: %s: empty code", f.Name)
	}
	for pc, ins := range f.Code {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("bytecode: %s@%d (%s): %s", f.Name, pc, ins.Op, fmt.Sprintf(format, args...))
		}
		switch ins.Op {
		case OpConst:
			if ins.A < 0 || int(ins.A) >= len(p.Consts) {
				return fail("constant index %d of %d", ins.A, len(p.Consts))
			}
		case OpLoadM, OpStoreM, OpLoadN, OpStoreN, OpLoadNet, OpCallNative:
			if ins.A < 0 || int(ins.A) >= len(p.Names) {
				return fail("name index %d of %d", ins.A, len(p.Names))
			}
			if ins.Op == OpCallNative && ins.B < 0 {
				return fail("negative argc %d", ins.B)
			}
		case OpLoadL, OpStoreL:
			if ins.A < 0 || int(ins.A) >= f.NumLocals {
				return fail("local slot %d of %d", ins.A, f.NumLocals)
			}
		case OpJmp, OpJz:
			// A jump to len(Code) would make the next dispatch read past
			// the code slice; the verifier demands an in-range target so
			// the VM can drop its per-step PC bounds check.
			if ins.A < 0 || int(ins.A) >= len(f.Code) {
				return fail("jump target %d of %d", ins.A, len(f.Code))
			}
		case OpArr:
			if ins.A < 0 {
				return fail("negative element count %d", ins.A)
			}
		case OpCallFunc:
			if ins.A <= 0 || int(ins.A) >= len(p.Funcs) {
				return fail("function index %d of %d", ins.A, len(p.Funcs))
			}
			callee := &p.Funcs[ins.A]
			if int(ins.B) != callee.NumParams {
				return fail("argc %d for %s taking %d", ins.B, callee.Name, callee.NumParams)
			}
		case OpHop, OpDelete, OpCreate:
			if ins.A < 1 || ins.A > maxNavArms {
				return fail("arm count %d", ins.A)
			}
		case OpNop, OpPop, OpDup, OpDup2, OpAdd, OpSub, OpMul, OpDiv,
			OpMod, OpNeg, OpNot, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe,
			OpIndex, OpSetIndex, OpRet, OpSchedAbs, OpSchedDlt, OpEnd:
			// No operand constraints.
		default:
			return fail("unknown opcode")
		}
	}
	return nil
}

// pops is the number of operands ins consumes: the underflow check runs it
// against the depth before kindEffect, the one table of stack effects.
func (ins Instr) pops() int32 {
	switch ins.Op {
	case OpStoreM, OpStoreN, OpStoreL, OpPop, OpJz, OpSchedAbs, OpSchedDlt, OpDup, OpNeg, OpNot, OpRet:
		return 1
	case OpDup2, OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIndex:
		return 2
	case OpSetIndex:
		return 3
	case OpArr:
		return ins.A
	case OpCallFunc, OpCallNative:
		// The callee's frame is separate but the operand stack is shared:
		// the call consumes the arguments now and the matching OpRet pushes
		// exactly one return value, so from this function's static
		// viewpoint the call is (argc -> 1).
		return ins.B
	case OpHop, OpDelete:
		return ins.A * 3
	case OpCreate:
		return ins.A * 6
	}
	return 0
}

// analyze is the abstract interpretation of one function: a worklist
// fixpoint over the CFG whose state on entry to a PC is a kstate, so the
// operand stack depth there is len(stack). Where paths merge the depths
// must agree exactly and the kinds join. Once the states would pass
// maxKindCells the kinds are dropped and the walk goes on proving depths
// alone.
func (p *Program) analyze(fi int) (funcMeta, error) {
	f := &p.Funcs[fi]
	m := funcMeta{depth: make([]int32, len(f.Code)), kinds: make([]kstate, len(f.Code))}
	for i := range m.depth {
		m.depth[i] = unreachable
	}
	fail := func(pc int, format string, args ...any) error {
		return fmt.Errorf("bytecode: %s@%d (%s): %s", f.Name, pc, f.Code[pc].Op, fmt.Sprintf(format, args...))
	}
	// s is the one working state: a visit copies the PC's entry state into
	// it and kindEffect turns it into the out state in place. It starts as
	// the entry state of the function.
	s := kstate{locals: make([]AbsKind, f.NumLocals), mvars: make([]AbsKind, len(p.vars.Names))}
	for i := range s.locals {
		// Arguments arrive from arbitrary call sites (the flat lattice
		// makes ⊤ the honest per-function answer); other locals are zero
		// Values until stored.
		s.locals[i] = KindNil
		if i < f.NumParams {
			s.locals[i] = KindTop
		}
	}
	for i := range s.mvars {
		// The Messenger-variable area is whatever the injector, a caller,
		// or a previous segment left there. Stores narrow it; hops preserve
		// it (Restore checks snapshots against these states).
		s.mvars[i] = KindTop
	}
	cells := 0
	var work []int
	// flow merges s into the entry state of pc. Two paths reaching the
	// same PC must agree on the depth, or the depth at a resumable point
	// would depend on the path taken and a snapshot there would not be
	// checkable.
	flow := func(from, pc int) error {
		if pc >= len(f.Code) {
			return fail(from, "control falls off end of code")
		}
		d := int32(len(s.stack))
		switch {
		case m.depth[pc] == unreachable:
			m.depth[pc] = d
			work = append(work, pc)
			if m.kinds == nil {
				break
			}
			if cells += len(s.stack) + len(s.locals) + len(s.mvars); cells > maxKindCells {
				m.kinds = nil
			} else {
				m.kinds[pc] = s.clone()
			}
		case m.depth[pc] != d:
			return fail(from, "inconsistent stack depth at merge into @%d: %d vs %d (unbalanced branch)", pc, m.depth[pc], d)
		case m.kinds != nil && joinInto(&m.kinds[pc], &s):
			work = append(work, pc)
		}
		return nil
	}
	flow(0, 0) // cannot fail: validateOperands refuses empty code
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		ins, d := f.Code[pc], m.depth[pc]
		if ins.Op == OpCallNative && ins.B > d {
			return funcMeta{}, fail(pc, "argc %d exceeds stack depth %d", ins.B, d)
		}
		if n := ins.pops(); d < n {
			return funcMeta{}, fail(pc, "stack underflow: pops %d with depth %d", n, d)
		}
		if m.kinds != nil {
			in := &m.kinds[pc]
			s.stack = append(s.stack[:0], in.stack...)
			copy(s.locals, in.locals)
			copy(s.mvars, in.mvars)
		} else {
			// Only the depth is live: the slots keep stale kinds, and the
			// spare capacity covers an instruction's at most two pushes.
			s.stack = slices.Grow(s.stack[:0], int(d)+2)[:d]
		}
		p.kindEffect(ins, &s)
		nd := int32(len(s.stack))
		if nd > maxStackDepth {
			return funcMeta{}, fail(pc, "stack depth %d exceeds maximum %d", nd, maxStackDepth)
		}
		m.max = max(m.max, nd)
		if (ins.Op == OpHop || ins.Op == OpDelete || ins.Op == OpCreate) && nd != 0 {
			// A nav statement must sit at a statement boundary: after the
			// arms are popped nothing of this frame's expression state may
			// remain, so the replicated Messengers resume with a fully
			// known operand stack.
			return funcMeta{}, fail(pc, "%d operands left beneath its arms (not at a statement boundary)", nd)
		}
		var err error
		switch ins.Op {
		case OpRet, OpEnd:
		case OpJmp:
			err = flow(pc, int(ins.A))
		case OpJz:
			if err = flow(pc, int(ins.A)); err == nil {
				err = flow(pc, pc+1)
			}
		default:
			// Nav opcodes fall through: the surviving replicas resume at
			// pc+1 (the VM increments the PC before pausing).
			err = flow(pc, pc+1)
		}
		if err != nil {
			return funcMeta{}, err
		}
	}
	return m, nil
}

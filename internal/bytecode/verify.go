package bytecode

import "fmt"

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
	// kinds holds the kind-flow analysis result (see kinds.go): the
	// abstract kind state on entry to every PC. nil when the analysis
	// degraded under its footprint cap — consumers then read every
	// reachable slot as ⊤. reached marks PCs the kind fixpoint visited
	// (equivalent to depth[pc] != unreachable; kept as bools for the
	// rejection and bound passes).
	kinds   []kstate
	reached []bool
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
// pools and code bounds, then runs an abstract interpretation over each
// function's control-flow graph proving the stack discipline the VM and
// the snapshot format rely on:
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
// Verified and carries per-PC stack-depth metadata.
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
	meta := make([]funcMeta, len(p.Funcs))
	for fi := range p.Funcs {
		m, err := p.analyzeStack(fi)
		if err != nil {
			return err
		}
		meta[fi] = m
	}
	p.meta = meta
	// With stack depths proven, run the kind-flow analysis (kinds.go):
	// per-PC value kinds for every stack slot, local, and Messenger
	// variable, and rejection of programs that provably kind-fault.
	p.collectMVars()
	for fi := range p.Funcs {
		if err := p.analyzeKinds(fi); err != nil {
			p.meta = nil
			return err
		}
	}
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

// analyzeStack runs the stack-effect abstract interpretation over one
// function: a worklist fixpoint over the CFG where the abstract state at a
// PC is the exact operand stack depth relative to function entry.
func (p *Program) analyzeStack(fi int) (funcMeta, error) {
	f := &p.Funcs[fi]
	depth := make([]int32, len(f.Code))
	for i := range depth {
		depth[i] = unreachable
	}
	fail := func(pc int, format string, args ...any) error {
		return fmt.Errorf("bytecode: %s@%d (%s): %s", f.Name, pc, f.Code[pc].Op, fmt.Sprintf(format, args...))
	}
	var maxd int32
	work := make([]int, 0, 8)
	depth[0] = 0
	work = append(work, 0)
	// flow merges depth d into successor pc; two paths reaching the same
	// PC must agree (otherwise the depth at a resumable point would depend
	// on the path taken, and a snapshot there would not be checkable).
	flow := func(from, pc int, d int32) error {
		if pc >= len(f.Code) {
			return fail(from, "control falls off end of code")
		}
		if depth[pc] == unreachable {
			depth[pc] = d
			work = append(work, pc)
			return nil
		}
		if depth[pc] != d {
			return fail(from, "inconsistent stack depth at merge into @%d: %d vs %d (unbalanced branch)", pc, depth[pc], d)
		}
		return nil
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := depth[pc]
		ins := f.Code[pc]

		var pops, pushes int32
		terminal := false
		nav := false
		switch ins.Op {
		case OpNop, OpJmp:
		case OpConst, OpLoadM, OpLoadN, OpLoadNet, OpLoadL:
			pushes = 1
		case OpStoreM, OpStoreN, OpStoreL, OpPop, OpJz, OpSchedAbs, OpSchedDlt:
			pops = 1
		case OpDup:
			pops, pushes = 1, 2
		case OpDup2:
			pops, pushes = 2, 4
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIndex:
			pops, pushes = 2, 1
		case OpNeg, OpNot:
			pops, pushes = 1, 1
		case OpSetIndex:
			pops = 3
			if ins.B != 0 {
				pushes = 1
			}
		case OpArr:
			pops, pushes = ins.A, 1
		case OpCallFunc:
			// The callee's frame is separate but the operand stack is
			// shared: the call consumes the arguments now and the matching
			// OpRet pushes exactly one return value, so from this
			// function's static viewpoint the call is (argc -> 1).
			pops, pushes = ins.B, 1
		case OpCallNative:
			pops, pushes = ins.B, 1
			if ins.B > d {
				return funcMeta{}, fail(pc, "argc %d exceeds stack depth %d", ins.B, d)
			}
		case OpRet:
			pops = 1
			terminal = true
		case OpEnd:
			terminal = true
		case OpHop, OpDelete:
			pops = ins.A * 3
			nav = true
		case OpCreate:
			pops = ins.A * 6
			nav = true
		}

		if d < pops {
			return funcMeta{}, fail(pc, "stack underflow: pops %d with depth %d", pops, d)
		}
		nd := d - pops + pushes
		if nd > maxStackDepth {
			return funcMeta{}, fail(pc, "stack depth %d exceeds maximum %d", nd, maxStackDepth)
		}
		if nd > maxd {
			maxd = nd
		}
		if nav && nd != 0 {
			// A nav statement must sit at a statement boundary: after the
			// arms are popped nothing of this frame's expression state may
			// remain, so the replicated Messengers resume with a fully
			// known operand stack.
			return funcMeta{}, fail(pc, "%d operands left beneath its arms (not at a statement boundary)", nd)
		}

		switch {
		case terminal:
		case ins.Op == OpJmp:
			if err := flow(pc, int(ins.A), nd); err != nil {
				return funcMeta{}, err
			}
		case ins.Op == OpJz:
			if err := flow(pc, int(ins.A), nd); err != nil {
				return funcMeta{}, err
			}
			if err := flow(pc, pc+1, nd); err != nil {
				return funcMeta{}, err
			}
		default:
			// Nav opcodes fall through: the surviving replicas resume at
			// pc+1 (the VM increments the PC before pausing).
			if err := flow(pc, pc+1, nd); err != nil {
				return funcMeta{}, err
			}
		}
	}
	return funcMeta{depth: depth, max: maxd}, nil
}

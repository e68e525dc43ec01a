package bytecode

import (
	"errors"
	"fmt"
	"slices"

	"messengers/internal/value"
)

// ErrIllTyped marks Validate failures produced by the kind-flow analysis:
// the program would provably kind-fault on every execution reaching some
// instruction (arithmetic on a proven string, a matrix builtin on a proven
// scalar, ...). Admission layers match it with errors.Is to map the
// failure to their ill-typed reject code instead of the generic
// verification failure.
var ErrIllTyped = errors.New("ill-typed program")

// AbsKind is one element of the kind-flow lattice: ⊥ (KindBottom, no value
// / unreachable), one exact value.Kind per dynamic type, and ⊤ (KindTop,
// any kind). The lattice is flat — joining two different exact kinds
// widens straight to ⊤ — which keeps the fixpoint cheap (every cell can
// rise at most twice) and makes "proven" mean exactly one dynamic kind.
type AbsKind uint8

// Lattice elements. The exact kinds mirror value.Kind shifted by one so
// the zero AbsKind is ⊥, never a claim.
const (
	KindBottom AbsKind = iota
	KindNil
	KindInt
	KindNum
	KindStr
	KindBytes
	KindArr
	KindMat
	KindTop
)

// KindOf lifts a dynamic kind into the lattice.
func KindOf(k value.Kind) AbsKind { return AbsKind(k) + 1 }

// String renders the lattice element; exact kinds use the MSL-facing
// names so verifier errors read like runtime errors.
func (k AbsKind) String() string {
	switch k {
	case KindBottom:
		return "⊥"
	case KindTop:
		return "any"
	default:
		return value.Kind(k - 1).String()
	}
}

// Matches reports whether a runtime value of dynamic kind vk is allowed
// where the analysis proved k. ⊤ allows everything; an exact kind allows
// only itself; ⊥ allows nothing (the location is unreachable).
func (k AbsKind) Matches(vk value.Kind) bool {
	return k == KindTop || k == KindOf(vk)
}

// Exact reports whether k is a single proven dynamic kind (not ⊥/⊤).
func (k AbsKind) Exact() bool { return k > KindBottom && k < KindTop }

// numeric reports Int or Num — the kinds arith and compare accept without
// coercion.
func (k AbsKind) numeric() bool { return k == KindInt || k == KindNum }

// scalar reports the fixed-wire-size kinds (Nil is 1 byte, Int/Num are 9).
func (k AbsKind) scalar() bool { return k == KindNil || k == KindInt || k == KindNum }

// join is the lattice join: ⊥ is the identity, equal kinds stay, anything
// else widens to ⊤.
func (k AbsKind) join(o AbsKind) AbsKind {
	switch {
	case k == o || o == KindBottom:
		return k
	case k == KindBottom:
		return o
	default:
		return KindTop
	}
}

// kstate is the abstract machine state on entry to one PC: the kind of
// every operand stack slot (frame-relative, so its length is the operand
// depth the verifier proves), every local, and every Messenger variable
// the program references anywhere (indexed by VarTable slot). Node and
// network variables are host state and always ⊤.
type kstate struct {
	stack  []AbsKind
	locals []AbsKind
	mvars  []AbsKind
}

func cloneKinds(s []AbsKind) []AbsKind {
	if s == nil {
		return nil
	}
	c := make([]AbsKind, len(s))
	copy(c, s)
	return c
}

func (s *kstate) clone() kstate {
	return kstate{stack: cloneKinds(s.stack), locals: cloneKinds(s.locals), mvars: cloneKinds(s.mvars)}
}

// joinInto merges src into dst cell-wise and reports whether dst changed.
// Slice lengths agree: the verifier checks the two depths are equal before
// it joins, and locals/mvars are fixed-size.
func joinInto(dst *kstate, src *kstate) bool {
	changed := false
	merge := func(d, s []AbsKind) {
		for i := range d {
			if j := d[i].join(s[i]); j != d[i] {
				d[i] = j
				changed = true
			}
		}
	}
	merge(dst.stack, src.stack)
	merge(dst.locals, src.locals)
	merge(dst.mvars, src.mvars)
	return changed
}

func (s *kstate) push(k AbsKind) { s.stack = append(s.stack, k) }

func (s *kstate) pop() AbsKind {
	k := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return k
}

func (s *kstate) popN(n int) { s.stack = s.stack[:len(s.stack)-n] }

func (s *kstate) topAll() {
	for i := range s.mvars {
		s.mvars[i] = KindTop
	}
}

// maxKindCells caps the total abstract-state footprint (Σ over PCs of
// stack depth + locals + tracked variables) the kind analysis will spend
// on one function. Hostile inputs can make the fixpoint quadratic in that
// footprint; past the cap the verifier drops the function's kinds and
// proves its depths alone, so its kinds degrade soundly to ⊤ (kinds ==
// nil: every reachable slot reads as ⊤, nothing is rejected, nothing is
// specialized) instead of stalling admission.
const maxKindCells = 1 << 21

// arithKind abstracts vm.arith over the lattice. It returns the result
// kind and, when the operation faults on every execution reaching it with
// these operand kinds, a non-empty fault description.
func arithKind(op Op, a, b AbsKind) (AbsKind, string) {
	// Either operand a proven string: concatenation accepts any peer
	// (it formats), every other operator always faults.
	if a == KindStr || b == KindStr {
		if op == OpAdd {
			return KindStr, ""
		}
		return KindTop, "operator not defined on strings"
	}
	if a == KindTop || b == KindTop {
		return KindTop, ""
	}
	if !a.scalar() || !b.scalar() {
		return KindTop, fmt.Sprintf("arithmetic on %s and %s", a, b)
	}
	// Nil coerces to Int(0) against a numeric (or nil) peer.
	if a == KindNil {
		a = KindInt
	}
	if b == KindNil {
		b = KindInt
	}
	if a == KindInt && b == KindInt {
		return KindInt, ""
	}
	return KindNum, ""
}

// cmpKind abstracts value.Compare: numerics order against numerics,
// strings against strings, everything else faults.
func cmpKind(a, b AbsKind) string {
	unorderable := func(k AbsKind) bool {
		return k == KindNil || k == KindBytes || k == KindArr || k == KindMat
	}
	if unorderable(a) || unorderable(b) {
		return fmt.Sprintf("cannot compare %s with %s", a, b)
	}
	if (a == KindStr && b.numeric()) || (b == KindStr && a.numeric()) {
		return fmt.Sprintf("cannot compare %s with %s", a, b)
	}
	return ""
}

// provenNotNumeric reports a kind that can never satisfy IsNumeric.
func provenNotNumeric(k AbsKind) bool {
	return k != KindTop && !k.numeric()
}

// nativeEffect models the inline builtins (internal/vm/builtins.go). For
// a known builtin it returns the result kind and, when the call provably
// faults (wrong argc, argument kind the builtin always rejects), a fault
// description; known=false means an unknown native — the daemon runs it
// out-of-line and may mutate Messenger variables, so the caller must
// widen them. The vm package cross-checks this table against its builtin
// map (TestKindNativeTableMatchesBuiltins), so the two cannot drift.
func nativeEffect(name string, args []AbsKind) (result AbsKind, fault string, known bool) {
	argc := func(n int) string {
		if len(args) != n {
			return fmt.Sprintf("%s: want %d arguments, got %d", name, n, len(args))
		}
		return ""
	}
	wantNumeric := func(i int) string {
		if provenNotNumeric(args[i]) {
			return fmt.Sprintf("%s: argument %d is proven %s, needs a numeric", name, i, args[i])
		}
		return ""
	}
	wantMat := func() string {
		if args[0] != KindTop && args[0] != KindMat {
			return fmt.Sprintf("%s: want a matrix, got proven %s", name, args[0])
		}
		return ""
	}
	first := func(checks ...string) string {
		for _, c := range checks {
			if c != "" {
				return c
			}
		}
		return ""
	}
	switch name {
	case "len":
		return KindInt, argc(1), true
	case "print":
		return KindNil, "", true
	case "str":
		return KindStr, argc(1), true
	case "int":
		f := argc(1)
		if f == "" && args[0].Exact() && !args[0].numeric() && args[0] != KindStr {
			f = fmt.Sprintf("cannot convert proven %s to int", args[0])
		}
		return KindInt, f, true
	case "num":
		f := argc(1)
		if f == "" && args[0].Exact() && !args[0].numeric() && args[0] != KindStr {
			f = fmt.Sprintf("cannot convert proven %s to num", args[0])
		}
		return KindNum, f, true
	case "abs":
		if f := argc(1); f != "" {
			return KindTop, f, true
		}
		switch args[0] {
		case KindInt, KindNum:
			return args[0], "", true
		case KindTop:
			return KindTop, "", true
		default:
			return KindTop, fmt.Sprintf("abs of proven %s", args[0]), true
		}
	case "min", "max":
		if len(args) < 1 {
			return KindTop, name + ": want at least 1 argument", true
		}
		r := args[0]
		sawStr, sawNum := false, false
		var f string
		for _, a := range args[1:] {
			r = r.join(a)
		}
		if len(args) > 1 {
			for _, a := range args {
				switch {
				case a == KindStr:
					sawStr = true
				case a.numeric():
					sawNum = true
				case a.Exact():
					f = fmt.Sprintf("%s: cannot compare proven %s", name, a)
				}
			}
			if f == "" && sawStr && sawNum {
				f = name + ": cannot compare str with a numeric"
			}
		}
		return r, f, true
	case "floor", "ceil", "sqrt":
		return KindNum, first(argc(1), wantNumeric(0)), true
	case "pow":
		return KindNum, first(argc(2), wantNumeric(0), wantNumeric(1)), true
	case "array":
		if len(args) < 1 || len(args) > 2 {
			return KindArr, name + ": want array(n) or array(n, fill)", true
		}
		return KindArr, wantNumeric(0), true
	case "bytes":
		return KindBytes, first(argc(1), wantNumeric(0)), true
	case "copy":
		if f := argc(1); f != "" {
			return KindTop, f, true
		}
		return args[0], "", true
	case "substr":
		f := argc(3)
		if f == "" && args[0].Exact() && args[0] != KindStr {
			f = fmt.Sprintf("substr of proven %s", args[0])
		}
		return KindStr, first(f, wantNumeric(1), wantNumeric(2)), true
	case "matrix":
		return KindMat, first(argc(2), wantNumeric(0), wantNumeric(1)), true
	case "rows", "cols":
		return KindInt, first(argc(1), wantMat()), true
	case "matget":
		return KindNum, first(argc(3), wantMat(), wantNumeric(1), wantNumeric(2)), true
	case "matset":
		return KindNil, first(argc(4), wantMat(), wantNumeric(1), wantNumeric(2)), true
	}
	return KindTop, "", false
}

// knownNatives lists the builtin names the kind analysis models, sorted.
// A builtin's index here is its identity after lowering: DCallNative
// carries it in A, and the vm package's builtin table is in this order.
var knownNatives = []string{
	"abs", "array", "bytes", "ceil", "cols", "copy", "floor", "int",
	"len", "matget", "matrix", "matset", "max", "min", "num", "pow",
	"print", "rows", "sqrt", "str", "substr",
}

// KnownNatives returns the builtin names in index order (sorted). The vm
// package asserts this list equals its inline builtin table, entry by
// entry: a name here that paused to the daemon instead would let a native
// mutate Messenger variables behind proofs that say otherwise.
func KnownNatives() []string { //lint:deadcode test support: the vm tests pin this table to the VM's builtins
	return slices.Clone(knownNatives)
}

// NativeIndex returns name's index in KnownNatives, or -1 when name is not
// a builtin (a daemon-registered native, resolved by name when it runs).
func NativeIndex(name string) int32 {
	if i, ok := slices.BinarySearch(knownNatives, name); ok {
		return int32(i)
	}
	return -1
}

// NativeResultKind exposes the modeled result kind of a known builtin for
// the given argument kinds (for the vm cross-check tests); ok=false for
// unknown natives.
func NativeResultKind(name string, args []AbsKind) (AbsKind, bool) { //lint:deadcode test support: the vm tests check each modeled kind against the builtin
	r, _, known := nativeEffect(name, args)
	return r, known
}

// kindEffect applies one instruction to s in place (entry state → out
// state) and returns a non-empty fault description when the instruction
// provably faults on every execution reaching it with this entry state.
// During the fixpoint the fault string is ignored and the result of a
// faulting operation widens to ⊤ (a premature rejection before states
// stabilize would depend on worklist order); the post-fixpoint check pass
// re-runs kindEffect on the final states and reports the faults.
func (p *Program) kindEffect(ins Instr, s *kstate) string {
	switch ins.Op {
	case OpNop, OpJmp:

	case OpConst:
		s.push(KindOf(p.Consts[ins.A].Kind()))

	case OpLoadM:
		s.push(s.mvars[p.vars.Slot[ins.A]])
	case OpStoreM:
		s.mvars[p.vars.Slot[ins.A]] = s.pop()

	case OpLoadN, OpLoadNet:
		// Host state: node variables are shared with natives and other
		// Messengers, network variables are engine-provided. Always ⊤.
		s.push(KindTop)
	case OpStoreN:
		s.pop()

	case OpLoadL:
		s.push(s.locals[ins.A])
	case OpStoreL:
		s.locals[ins.A] = s.pop()

	case OpPop:
		s.pop()
	case OpDup:
		s.push(s.stack[len(s.stack)-1])
	case OpDup2:
		n := len(s.stack)
		s.push(s.stack[n-2])
		s.push(s.stack[n-1])

	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		b, a := s.pop(), s.pop()
		r, fault := arithKind(ins.Op, a, b)
		s.push(r)
		return fault

	case OpNeg:
		a := s.pop()
		switch a {
		case KindInt, KindNum, KindTop:
			s.push(a)
		default:
			s.push(KindTop)
			return fmt.Sprintf("cannot negate proven %s", a)
		}
	case OpNot:
		s.pop()
		s.push(KindInt)

	case OpEq, OpNe:
		s.popN(2)
		s.push(KindInt)
	case OpLt, OpLe, OpGt, OpGe:
		b, a := s.pop(), s.pop()
		s.push(KindInt)
		return cmpKind(a, b)

	case OpJz:
		s.pop()

	case OpIndex:
		idx, base := s.pop(), s.pop()
		var fault string
		if provenNotNumeric(idx) {
			fault = fmt.Sprintf("index must be numeric, got proven %s", idx)
		}
		switch base {
		case KindArr, KindTop:
			s.push(KindTop)
		case KindBytes, KindStr:
			s.push(KindInt)
		case KindMat:
			s.push(KindNum)
		default:
			s.push(KindTop)
			if fault == "" {
				fault = fmt.Sprintf("proven %s is not indexable", base)
			}
		}
		return fault

	case OpSetIndex:
		val, idx, base := s.pop(), s.pop(), s.pop()
		if ins.B != 0 {
			s.push(val)
		}
		if provenNotNumeric(idx) {
			return fmt.Sprintf("index must be numeric, got proven %s", idx)
		}
		if base.Exact() && base != KindArr && base != KindBytes && base != KindMat {
			return fmt.Sprintf("cannot set index on proven %s", base)
		}

	case OpArr:
		s.popN(int(ins.A))
		s.push(KindArr)

	case OpCallFunc:
		// The callee runs with its own frame but shares the Messenger
		// variables and may store any of them (transitively), so the
		// call widens every tracked variable; its return value is ⊤.
		s.popN(int(ins.B))
		s.push(KindTop)
		s.topAll()

	case OpRet:
		s.pop()

	case OpCallNative:
		n := int(ins.B)
		args := s.stack[len(s.stack)-n:]
		result, fault, known := nativeEffect(p.Names[ins.A], args)
		s.popN(n)
		s.push(result)
		if !known {
			// Out-of-line native: the daemon runs it between segments with
			// nothing modeled here, so no kind claim about Messenger
			// variables survives it. Conservative: no native API writes them.
			s.topAll()
		}
		return fault

	case OpHop, OpDelete:
		s.popN(int(ins.A) * 3)
	case OpCreate:
		s.popN(int(ins.A) * 6)

	case OpSchedAbs, OpSchedDlt:
		t := s.pop()
		if provenNotNumeric(t) {
			return fmt.Sprintf("scheduling time must be numeric, got proven %s", t)
		}

	case OpEnd:
	}
	return ""
}

// rejectFaults is the rejection pass over one function's stabilized
// states: an instruction that provably faults on its (now
// path-join-complete) entry state faults on every execution that reaches
// it. A function whose kinds were dropped proves, and rejects, nothing.
func (p *Program) rejectFaults(f *FuncInfo, m *funcMeta) error {
	if m.kinds == nil {
		return nil
	}
	for pc, ins := range f.Code {
		if m.depth[pc] == unreachable {
			continue
		}
		s := m.kinds[pc].clone()
		if fault := p.kindEffect(ins, &s); fault != "" {
			return fmt.Errorf("bytecode: %s@%d (%s): %w: %s", f.Name, pc, ins.Op, ErrIllTyped, fault)
		}
	}
	return nil
}

// SlotKind returns the proven kind of frame-relative operand stack slot
// `slot` on entry to Funcs[fn].Code[pc]: KindBottom when the program is
// unverified, the location is out of range or unreachable, or the slot is
// above the proven depth; KindTop when the analysis degraded (footprint
// cap) or could not narrow the slot.
func (p *Program) SlotKind(fn, pc, slot int) AbsKind {
	d := p.StackDepth(fn, pc)
	if d < 0 || slot < 0 || slot >= d {
		return KindBottom
	}
	m := &p.meta[fn]
	if m.kinds == nil {
		return KindTop
	}
	return m.kinds[pc].stack[slot]
}

// LocalKind returns the proven kind of local slot `slot` on entry to
// Funcs[fn].Code[pc]; KindBottom outside the program, KindTop when not
// narrowed.
func (p *Program) LocalKind(fn, pc, slot int) AbsKind {
	if p.StackDepth(fn, pc) < 0 {
		return KindBottom
	}
	if slot < 0 || slot >= p.Funcs[fn].NumLocals {
		return KindBottom
	}
	m := &p.meta[fn]
	if m.kinds == nil {
		return KindTop
	}
	return m.kinds[pc].locals[slot]
}

// VarKind returns the proven kind of the Messenger variable in VarTable
// slot `slot` on entry to Funcs[fn].Code[pc]; KindBottom outside the
// program or the table, KindTop when not narrowed. Variables the program
// never references have no slot: nothing can read them.
func (p *Program) VarKind(fn, pc, slot int) AbsKind {
	if p.StackDepth(fn, pc) < 0 || slot < 0 || slot >= len(p.vars.Names) {
		return KindBottom
	}
	m := &p.meta[fn]
	if m.kinds == nil {
		return KindTop
	}
	return m.kinds[pc].mvars[slot]
}

// scalarWire is the worst-case encoded size of a proven-scalar value
// (Int/Num tag + payload; Nil is smaller).
const scalarWire = 9

// snapOverhead is the fixed framing of a single-frame snapshot: the env
// count, the frame count, one frame header (fn, pc, local count), and the
// stack count — see vm.AppendSnapshot.
const snapOverhead = 4 + 4 + 12 + 4

// StateBound derives a static upper bound, in encoded snapshot bytes, on
// the serialized state of a Messenger running a verified program. The
// snapshot a daemon puts on the wire is taken at nav pauses (hop, create,
// delete), so the bound only has to hold there; transient non-scalar
// values between navs (string constants feeding hop kwargs, compare
// operands) do not defeat it.
//
// A bound is derivable when, over the reachable main body:
//   - no OpCallFunc executes (multi-frame snapshots have no static frame
//     count — recursion is unbounded);
//   - every native call is a modeled builtin (an out-of-line native may
//     rewrite the elements of an aggregate it is passed);
//   - no OpSetIndex executes (an element write can swap a small element
//     of an injected aggregate for a larger one, growing its encoding);
//   - every Messenger-variable store deposits a proven scalar, so each
//     tracked variable always holds either its injected value or a
//     scalar at most scalarWire bytes;
//   - at the post-state of every nav instruction (the state the snapshot
//     captures), all operand-stack slots and locals are proven scalars.
//
// base covers the snapshot framing plus scalarWire for every tracked
// variable, local, and stack slot. The injected values are the caller's
// to account: add each submitted value's encoded size for the names in
// inherited (= VarTable().Names, whose injected value may persist until
// the first store), plus the full env entry for any injected name the
// program never references (it rides along untouched). ok=false means no
// bound is derivable and admission must rely on dynamic memory checks at
// nav boundaries.
func (p *Program) StateBound() (base int64, inherited []string, ok bool) {
	if !p.verified || len(p.meta) == 0 {
		return 0, nil, false
	}
	m := &p.meta[0]
	if m.kinds == nil {
		return 0, nil, false
	}
	f := &p.Funcs[0]
	for pc, ins := range f.Code {
		if m.depth[pc] == unreachable {
			continue
		}
		switch ins.Op {
		case OpCallFunc, OpSetIndex:
			return 0, nil, false
		case OpCallNative:
			if _, _, known := nativeEffect(p.Names[ins.A], make([]AbsKind, ins.B)); !known {
				return 0, nil, false
			}
		case OpStoreM:
			st := &m.kinds[pc]
			if d := len(st.stack); d == 0 || !st.stack[d-1].scalar() {
				return 0, nil, false
			}
		case OpHop, OpCreate, OpDelete:
			// The snapshot captures the state after the nav pops its
			// kwargs: run the transfer function to get that post-state.
			post := m.kinds[pc].clone()
			p.kindEffect(ins, &post)
			for _, k := range post.stack {
				if !k.scalar() && k != KindBottom {
					return 0, nil, false
				}
			}
			for _, k := range post.locals {
				if !k.scalar() && k != KindBottom {
					return 0, nil, false
				}
			}
		}
	}
	base = snapOverhead
	for _, name := range p.vars.Names {
		base += int64(4 + len(name) + scalarWire)
		inherited = append(inherited, name)
	}
	base += int64(f.NumLocals) * scalarWire
	base += int64(p.MaxStack(0)) * scalarWire
	return base, inherited, true
}

package bytecode

// The lowering pass: a post-verify translation of a Program's stack code
// into an internal "direct" instruction stream built for fast dispatch.
//
// The wire format and the verifier see only the portable Instr stream;
// lowering is derived, cached on the Program, and never serialized — a
// program arriving over the wire is re-verified and re-lowered locally, so
// goldens and content hashes are untouched. What lowering buys the
// interpreter:
//
//   - operands are pre-decoded: constants become the value.Value itself
//     (tagged with whether a defensive clone is needed), names become the
//     string, a builtin's name becomes its index in KnownNatives, and
//     Messenger-variable names become slots of the program's VarTable,
//     the indices of the VM's variable area;
//   - jump targets are resolved to direct-stream indices;
//   - adjacent opcode sequences are fused into superinstructions: pairs,
//     plus two four-wide loop idioms over Messenger variables (the
//     compare-and-branch loop head and the load-const-arith-store
//     increment) that execute without touching the operand stack at all.
//     A family exists only if a program the repository ships lowers to it
//     (TestSuperinstructionsHaveTraffic): the Go-embedded programs are
//     loops over Messenger variables, and scripts/fib.msl's functions
//     keep the handful of local-slot forms they lower to.
//
// Only package vm may consume the lowered form (enforced by the
// vmdispatch analyzer); everything else treats a Program as opaque.

import (
	"sync/atomic"

	"messengers/internal/value"
)

// DOp is a direct-stream opcode. The first block mirrors the portable
// instruction set one-to-one (pre-decoded); the DF blocks hold fused
// superinstructions covering two or four source instructions, and the last
// block their kind-specialized variants.
type DOp uint8

// Direct opcodes.
const (
	DNop DOp = iota
	// DConst pushes Val without cloning (immutable scalar kinds only).
	DConst
	// DConstClone pushes Val.Clone() (mutable aggregate constants).
	DConstClone
	// DLoadM/DStoreM access Messenger-variable slot A (see VarTable).
	DLoadM
	DStoreM
	// DLoadN/DStoreN/DLoadNet access node/network variable Name.
	DLoadN
	DStoreN
	DLoadNet
	DLoadL
	DStoreL
	DPop
	DDup
	DDup2
	DAdd
	DSub
	DMul
	DDiv
	DMod
	DNeg
	DNot
	DEq
	DNe
	DLt
	DLe
	DGt
	DGe
	// DJmp/DJz jump to direct-stream index A of the same function.
	DJmp
	DJz
	DIndex
	DSetIndex
	DArr
	DCallFunc
	DRet
	// DCallNative invokes builtin A (its index in KnownNatives) or, when
	// A is -1, the daemon native Name, with B stack arguments.
	DCallNative
	DHop
	DCreate
	DDelete
	DSchedAbs
	DSchedDlt
	DEnd

	// Fused superinstructions (N=2). Naming: constituents in source order.
	// A further quad block (N=4) follows the pairs. Every family here and
	// in the specialized block below has a shipped program that lowers to
	// it (TestSuperinstructionsHaveTraffic).

	// DFConstAdd..DFConstMod: push Val then arithmetic — computed as
	// top ⊕ Val without materializing the push.
	DFConstAdd
	DFConstSub
	DFConstMul
	DFConstDiv
	DFConstMod
	// DFLoadMConst/DFLoadLConst: push Messenger slot A (local slot A),
	// then push Val.
	DFLoadMConst
	DFLoadLConst
	// DFLoadMM/DFLoadLL: push slots A then B.
	DFLoadMM
	DFLoadLL
	// DFEqJz..DFGeJz: compare then branch to direct index A when the
	// comparison is false (the Jz of a loop head).
	DFEqJz
	DFNeJz
	DFLtJz
	DFLeJz
	DFGtJz
	DFGeJz
	// DFAddStoreM..DFModStoreM: arithmetic then store into Messenger
	// slot A. DFAddStoreL..: same into local slot A.
	DFAddStoreM
	DFSubStoreM
	DFMulStoreM
	DFDivStoreM
	DFModStoreM
	DFAddStoreL
	DFSubStoreL
	DFMulStoreL
	DFDivStoreL
	DFModStoreL

	// Quad superinstructions (N=4): whole loop idioms. A loop head "load,
	// load-or-const, ordered-compare, jz" and an increment "load, const,
	// arithmetic, store" each collapse into one dispatch that never
	// touches the operand stack. MM/MC operate on Messenger slots, LC on
	// locals (a slot-against-slot local loop head has no traffic).

	// DFMMLtJz..DFMMGeJz: compare Messenger slots A and B, branch to
	// direct index C when false.
	DFMMLtJz
	DFMMLeJz
	DFMMGtJz
	DFMMGeJz
	// DFMCLtJz..DFMCGeJz: compare Messenger slot A with constant Val,
	// branch to direct index C when false.
	DFMCLtJz
	DFMCLeJz
	DFMCGtJz
	DFMCGeJz
	// DFLCLtJz..DFLCGeJz: the same with local slot A.
	DFLCLtJz
	DFLCLeJz
	DFLCGtJz
	DFLCGeJz
	// DFMCAddStoreM..: Messenger slot A ⊕ constant Val into Messenger
	// slot B (the i = i + 1 idiom). DFLCAddStoreL..: local form.
	DFMCAddStoreM
	DFMCSubStoreM
	DFMCMulStoreM
	DFMCDivStoreM
	DFMCModStoreM
	DFLCAddStoreL
	DFLCSubStoreL
	DFLCMulStoreL
	DFLCDivStoreL
	DFLCModStoreL

	// Kind-specialized variants. Emitted only under LowerKind, at source
	// PCs where the kind-flow verifier (kinds.go) proved the operand kinds;
	// their handlers read value payloads directly with no dynamic kind
	// guard — Restore re-checks every snapshot-injected value against the
	// same proofs, so the guard is spent once at admission instead of per
	// dispatch. The suffix names the proven kinds in stack order: II
	// int/int, NN num/num, IN int/num. Stream shape (fusion, S2D, Src, N,
	// operands) is identical to LowerFused — only opcodes change — so
	// snapshots, meters, and profiles are unaffected.

	// Plain arithmetic over proven kinds. Div/Mod II keep the runtime
	// zero check (the divisor's value stays dynamic even when its kind is
	// proven); every other variant is guard- and branch-free.
	DAddII
	DSubII
	DMulII
	DDivII
	DModII
	DAddNN
	DSubNN
	DMulNN
	DDivNN
	DModNN
	DAddIN
	DSubIN
	DMulIN
	DDivIN
	DModIN
	// Const-arith pairs over a proven num.
	DFConstAddNN
	DFConstSubNN
	DFConstMulNN
	DFConstDivNN
	DFConstModNN
	// Compare-and-branch pairs over proven ints. Eq/Ne compare int64
	// exactly; the ordered forms promote through float64 like the oracle.
	DFEqJzII
	DFNeJzII
	DFLtJzII
	DFLeJzII
	DFGtJzII
	DFGeJzII
	// Arith-store pairs.
	DFAddStoreMII
	DFSubStoreMII
	DFMulStoreMII
	DFDivStoreMII
	DFModStoreMII
	DFAddStoreMNN
	DFSubStoreMNN
	DFMulStoreMNN
	DFDivStoreMNN
	DFModStoreMNN
	// Quad loop heads over proven ints — the fully guard-free form of the
	// hottest dispatch in every counting loop.
	DFMMLtJzII
	DFMMLeJzII
	DFMMGtJzII
	DFMMGeJzII
	DFMCLtJzII
	DFMCLeJzII
	DFMCGtJzII
	DFMCGeJzII
	// Quad increments over proven ints (div/mod only when the constant is
	// a nonzero int, so no zero check survives).
	DFMCAddStoreMII
	DFMCSubStoreMII
	DFMCMulStoreMII
	DFMCDivStoreMII
	DFMCModStoreMII
	DFLCAddStoreLII
	DFLCSubStoreLII
	DFLCMulStoreLII
	DFLCDivStoreLII
	DFLCModStoreLII

	NumDOps
)

// Generic returns the unspecialized opcode a kind-specialized opcode was
// derived from, or o itself for unspecialized opcodes. Specialized opcodes
// share their generic counterpart's constituents, step weight, and stream
// position — only the handler differs.
func (o DOp) Generic() DOp {
	switch {
	case o < DAddII:
		return o
	case o <= DModIN:
		return DAdd + (o-DAddII)%5
	case o <= DFConstModNN:
		return DFConstAdd + (o - DFConstAddNN)
	case o <= DFGeJzII:
		return DFEqJz + (o - DFEqJzII)
	case o <= DFModStoreMNN:
		return DFAddStoreM + (o-DFAddStoreMII)%5
	case o <= DFMCGeJzII:
		return DFMMLtJz + (o - DFMMLtJzII)
	case o <= DFMCModStoreMII:
		return DFMCAddStoreM + (o - DFMCAddStoreMII)
	default:
		return DFLCAddStoreL + (o - DFLCAddStoreLII)
	}
}

// specSuffix is the kind annotation a specialized opcode appends to its
// generic mnemonic.
func specSuffix(o DOp) string {
	switch {
	case o < DAddII:
		return ""
	case o <= DModIN:
		return [3]string{".ii", ".nn", ".in"}[(o-DAddII)/5]
	case o <= DFConstModNN, o >= DFAddStoreMNN && o <= DFModStoreMNN:
		return ".nn"
	default:
		return ".ii"
	}
}

var dopNames = [NumDOps]string{
	DNop: "nop", DConst: "const", DConstClone: "const*", DLoadM: "loadm",
	DStoreM: "storem", DLoadN: "loadn", DStoreN: "storen", DLoadNet: "loadnet",
	DLoadL: "loadl", DStoreL: "storel", DPop: "pop", DDup: "dup", DDup2: "dup2",
	DAdd: "add", DSub: "sub", DMul: "mul", DDiv: "div", DMod: "mod",
	DNeg: "neg", DNot: "not", DEq: "eq", DNe: "ne", DLt: "lt", DLe: "le",
	DGt: "gt", DGe: "ge", DJmp: "jmp", DJz: "jz", DIndex: "index",
	DSetIndex: "setindex", DArr: "arr", DCallFunc: "callf", DRet: "ret",
	DCallNative: "calln", DHop: "hop", DCreate: "create", DDelete: "delete",
	DSchedAbs: "schedabs", DSchedDlt: "scheddlt", DEnd: "end",
	DFConstAdd: "const+add", DFConstSub: "const+sub", DFConstMul: "const+mul",
	DFConstDiv: "const+div", DFConstMod: "const+mod",
	DFLoadMConst: "loadm+const", DFLoadLConst: "loadl+const",
	DFLoadMM: "loadm+loadm", DFLoadLL: "loadl+loadl",
	DFEqJz: "eq+jz", DFNeJz: "ne+jz", DFLtJz: "lt+jz", DFLeJz: "le+jz",
	DFGtJz: "gt+jz", DFGeJz: "ge+jz",
	DFAddStoreM: "add+storem", DFSubStoreM: "sub+storem", DFMulStoreM: "mul+storem",
	DFDivStoreM: "div+storem", DFModStoreM: "mod+storem",
	DFAddStoreL: "add+storel", DFSubStoreL: "sub+storel", DFMulStoreL: "mul+storel",
	DFDivStoreL: "div+storel", DFModStoreL: "mod+storel",
	DFMMLtJz: "mm<jz", DFMMLeJz: "mm<=jz", DFMMGtJz: "mm>jz", DFMMGeJz: "mm>=jz",
	DFMCLtJz: "mc<jz", DFMCLeJz: "mc<=jz", DFMCGtJz: "mc>jz", DFMCGeJz: "mc>=jz",
	DFLCLtJz: "lc<jz", DFLCLeJz: "lc<=jz", DFLCGtJz: "lc>jz", DFLCGeJz: "lc>=jz",
	DFMCAddStoreM: "m+c>m", DFMCSubStoreM: "m-c>m", DFMCMulStoreM: "m*c>m",
	DFMCDivStoreM: "m/c>m", DFMCModStoreM: "m%c>m",
	DFLCAddStoreL: "l+c>l", DFLCSubStoreL: "l-c>l", DFLCMulStoreL: "l*c>l",
	DFLCDivStoreL: "l/c>l", DFLCModStoreL: "l%c>l",
}

// String returns the mnemonic.
func (o DOp) String() string {
	if o < NumDOps && dopNames[o] != "" {
		return dopNames[o]
	}
	return "dop(?)"
}

// dopSrc maps each direct opcode to its source constituents for profile
// accounting; unused trailing entries are OpNop. dopN (below) is
// authoritative for how many entries are real.
var dopSrc = [NumDOps][4]Op{
	DNop: {OpNop, OpNop}, DConst: {OpConst, OpNop}, DConstClone: {OpConst, OpNop},
	DLoadM: {OpLoadM, OpNop}, DStoreM: {OpStoreM, OpNop},
	DLoadN: {OpLoadN, OpNop}, DStoreN: {OpStoreN, OpNop}, DLoadNet: {OpLoadNet, OpNop},
	DLoadL: {OpLoadL, OpNop}, DStoreL: {OpStoreL, OpNop}, DPop: {OpPop, OpNop},
	DDup: {OpDup, OpNop}, DDup2: {OpDup2, OpNop},
	DAdd: {OpAdd, OpNop}, DSub: {OpSub, OpNop}, DMul: {OpMul, OpNop},
	DDiv: {OpDiv, OpNop}, DMod: {OpMod, OpNop}, DNeg: {OpNeg, OpNop}, DNot: {OpNot, OpNop},
	DEq: {OpEq, OpNop}, DNe: {OpNe, OpNop}, DLt: {OpLt, OpNop}, DLe: {OpLe, OpNop},
	DGt: {OpGt, OpNop}, DGe: {OpGe, OpNop},
	DJmp: {OpJmp, OpNop}, DJz: {OpJz, OpNop}, DIndex: {OpIndex, OpNop},
	DSetIndex: {OpSetIndex, OpNop}, DArr: {OpArr, OpNop},
	DCallFunc: {OpCallFunc, OpNop}, DRet: {OpRet, OpNop}, DCallNative: {OpCallNative, OpNop},
	DHop: {OpHop, OpNop}, DCreate: {OpCreate, OpNop}, DDelete: {OpDelete, OpNop},
	DSchedAbs: {OpSchedAbs, OpNop}, DSchedDlt: {OpSchedDlt, OpNop}, DEnd: {OpEnd, OpNop},
	DFConstAdd: {OpConst, OpAdd}, DFConstSub: {OpConst, OpSub},
	DFConstMul: {OpConst, OpMul}, DFConstDiv: {OpConst, OpDiv}, DFConstMod: {OpConst, OpMod},
	DFLoadMConst: {OpLoadM, OpConst}, DFLoadLConst: {OpLoadL, OpConst},
	DFLoadMM: {OpLoadM, OpLoadM}, DFLoadLL: {OpLoadL, OpLoadL},
	DFEqJz: {OpEq, OpJz}, DFNeJz: {OpNe, OpJz}, DFLtJz: {OpLt, OpJz},
	DFLeJz: {OpLe, OpJz}, DFGtJz: {OpGt, OpJz}, DFGeJz: {OpGe, OpJz},
	DFAddStoreM: {OpAdd, OpStoreM}, DFSubStoreM: {OpSub, OpStoreM},
	DFMulStoreM: {OpMul, OpStoreM}, DFDivStoreM: {OpDiv, OpStoreM}, DFModStoreM: {OpMod, OpStoreM},
	DFAddStoreL: {OpAdd, OpStoreL}, DFSubStoreL: {OpSub, OpStoreL},
	DFMulStoreL: {OpMul, OpStoreL}, DFDivStoreL: {OpDiv, OpStoreL}, DFModStoreL: {OpMod, OpStoreL},
	DFMMLtJz:      {OpLoadM, OpLoadM, OpLt, OpJz},
	DFMMLeJz:      {OpLoadM, OpLoadM, OpLe, OpJz},
	DFMMGtJz:      {OpLoadM, OpLoadM, OpGt, OpJz},
	DFMMGeJz:      {OpLoadM, OpLoadM, OpGe, OpJz},
	DFMCLtJz:      {OpLoadM, OpConst, OpLt, OpJz},
	DFMCLeJz:      {OpLoadM, OpConst, OpLe, OpJz},
	DFMCGtJz:      {OpLoadM, OpConst, OpGt, OpJz},
	DFMCGeJz:      {OpLoadM, OpConst, OpGe, OpJz},
	DFLCLtJz:      {OpLoadL, OpConst, OpLt, OpJz},
	DFLCLeJz:      {OpLoadL, OpConst, OpLe, OpJz},
	DFLCGtJz:      {OpLoadL, OpConst, OpGt, OpJz},
	DFLCGeJz:      {OpLoadL, OpConst, OpGe, OpJz},
	DFMCAddStoreM: {OpLoadM, OpConst, OpAdd, OpStoreM},
	DFMCSubStoreM: {OpLoadM, OpConst, OpSub, OpStoreM},
	DFMCMulStoreM: {OpLoadM, OpConst, OpMul, OpStoreM},
	DFMCDivStoreM: {OpLoadM, OpConst, OpDiv, OpStoreM},
	DFMCModStoreM: {OpLoadM, OpConst, OpMod, OpStoreM},
	DFLCAddStoreL: {OpLoadL, OpConst, OpAdd, OpStoreL},
	DFLCSubStoreL: {OpLoadL, OpConst, OpSub, OpStoreL},
	DFLCMulStoreL: {OpLoadL, OpConst, OpMul, OpStoreL},
	DFLCDivStoreL: {OpLoadL, OpConst, OpDiv, OpStoreL},
	DFLCModStoreL: {OpLoadL, OpConst, OpMod, OpStoreL},
}

// dopN is the number of source instructions each direct opcode covers.
var dopN = func() [NumDOps]uint8 {
	var n [NumDOps]uint8
	for o := range n {
		n[o] = 1
	}
	for o := DFConstAdd; o <= DFModStoreL; o++ {
		n[o] = 2
	}
	for o := DFMMLtJz; o <= DFLCModStoreL; o++ {
		n[o] = 4
	}
	for o := DAddII; o < NumDOps; o++ {
		n[o] = n[o.Generic()]
	}
	return n
}()

// Specialized opcodes inherit their generic counterpart's constituents and
// mnemonic (with the kind suffix) instead of repeating 54 table rows.
func init() {
	for o := DAddII; o < NumDOps; o++ {
		g := o.Generic()
		dopSrc[o] = dopSrc[g]
		dopNames[o] = dopNames[g] + specSuffix(o)
	}
}

// Constituents returns the source opcodes a direct opcode executes (the
// first n entries) and how many source instructions it covers (1, 2, or 4).
func (o DOp) Constituents() (ops [4]Op, n int) {
	return dopSrc[o], int(dopN[o])
}

// DInstr is one direct-stream instruction. A, B, and C carry pre-decoded
// operands (slot indices, builtin indices, argument counts, resolved jump
// targets); Val and Name carry the decoded constant and name-pool entry
// where the opcode needs them. Src is the source PC of the first
// constituent and N the number of source instructions covered — the step
// meter charges N so fused and unfused execution meter identically.
type DInstr struct {
	Op      DOp
	N       uint8
	A, B, C int32
	Src     int32
	Val     value.Value
	Name    string
}

// DFunc is one function's direct stream.
type DFunc struct {
	Code []DInstr
	// S2D maps a source PC to its direct-stream index, or -1 for the
	// interior (second constituent) of a fused pair. Every PC a snapshot
	// can resume at — jump targets and successors of pause opcodes — is
	// guaranteed to map.
	S2D []int32
}

// Lowered is a Program's direct form. It is derived state: rebuilt from
// the portable stream on demand, never encoded, never hashed.
type Lowered struct {
	Funcs []DFunc
	// Fused counts fused instructions across all functions (static).
	Fused int
}

// LowerMode selects how far the lowering pass optimizes beyond operand
// pre-decoding.
type LowerMode uint8

const (
	// LowerPlain translates one-to-one: pre-decoded operands, no fusion.
	LowerPlain LowerMode = iota
	// LowerFused adds superinstruction fusion.
	LowerFused
	// LowerKind adds kind specialization on top of fusion: wherever the
	// kind-flow verifier proved the operand kinds at a source PC, the
	// instruction is swapped for its guard-free specialized variant. The
	// stream shape is identical to LowerFused — only opcodes differ.
	LowerKind
	numLowerModes
)

// Lowered returns the program's direct form for the given mode, building
// and caching it on first use. It returns nil for unverified programs —
// lowering leans on the verifier's guarantees (in-range jumps, no
// fall-through, balanced stacks, proven kinds), so the interpreter's fast
// path and the verifier gate are the same gate.
func (p *Program) Lowered(mode LowerMode) *Lowered {
	if !p.verified || mode >= numLowerModes {
		return nil
	}
	slot := &p.lowered[mode]
	if low := slot.Load(); low != nil {
		return low
	}
	low := p.buildLowered(mode)
	// Concurrent builders produce equivalent streams; first store wins.
	if !slot.CompareAndSwap(nil, low) {
		return slot.Load()
	}
	return low
}

// lowerCaches is embedded in Program (see bytecode.go); Validate resets it
// so a mutated-and-revalidated program cannot serve a stale stream.
type lowerCaches struct {
	lowered [numLowerModes]atomic.Pointer[Lowered]
}

func (c *lowerCaches) resetLowered() {
	for i := range c.lowered {
		c.lowered[i].Store(nil)
	}
}

// fusePair returns the superinstruction for the adjacent pair (a, b), or
// DNop when the pair is not fused. Constants are only folded into a fused
// push when they are immutable (no clone needed); DFConstArith is exempt
// because the constant is consumed by the arithmetic, never escaping to
// the stack.
func (p *Program) fusePair(a, b Instr) DOp {
	switch a.Op {
	case OpConst:
		switch b.Op {
		case OpAdd:
			return DFConstAdd
		case OpSub:
			return DFConstSub
		case OpMul:
			return DFConstMul
		case OpDiv:
			return DFConstDiv
		case OpMod:
			return DFConstMod
		}
	case OpLoadM:
		switch b.Op {
		case OpConst:
			if constImmutable(p.Consts[b.A]) {
				return DFLoadMConst
			}
		case OpLoadM:
			return DFLoadMM
		}
	case OpLoadL:
		switch b.Op {
		case OpConst:
			if constImmutable(p.Consts[b.A]) {
				return DFLoadLConst
			}
		case OpLoadL:
			return DFLoadLL
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if b.Op == OpJz {
			return DFEqJz + DOp(a.Op-OpEq)
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		switch b.Op {
		case OpStoreM:
			return DFAddStoreM + DOp(a.Op-OpAdd)
		case OpStoreL:
			return DFAddStoreL + DOp(a.Op-OpAdd)
		}
	}
	return DNop
}

// fuseQuad returns the quad superinstruction for the window starting at a,
// or DNop. Two idioms: the loop head (load, load-or-const, ordered compare,
// jz; a local compares only against a constant) and the increment (load,
// const, arithmetic, same-kind store). The constant is consumed inside the
// handler in both, so mutability does not matter; only ordered comparisons
// participate (Eq/Ne loop heads keep pair fusion).
func fuseQuad(a, b, c, d Instr) DOp {
	if a.Op != OpLoadM && a.Op != OpLoadL {
		return DNop
	}
	local := a.Op == OpLoadL
	switch c.Op {
	case OpLt, OpLe, OpGt, OpGe:
		if d.Op != OpJz {
			return DNop
		}
		off := DOp(c.Op - OpLt)
		switch {
		case b.Op == OpConst && local:
			return DFLCLtJz + off
		case b.Op == OpConst:
			return DFMCLtJz + off
		case b.Op == OpLoadM && !local:
			return DFMMLtJz + off
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		if b.Op != OpConst {
			return DNop
		}
		off := DOp(c.Op - OpAdd)
		switch {
		case d.Op == OpStoreL && local:
			return DFLCAddStoreL + off
		case d.Op == OpStoreM && !local:
			return DFMCAddStoreM + off
		}
	}
	return DNop
}

// constImmutable reports whether a constant may be pushed without a
// defensive clone: scalar kinds share safely, aggregates do not.
func constImmutable(v value.Value) bool {
	switch v.Kind() {
	case value.KindNil, value.KindInt, value.KindNum, value.KindStr:
		return true
	default:
		return false
	}
}

// specializeOp returns the kind-specialized variant of an emitted direct
// instruction, or d.Op unchanged when the verifier could not prove the
// operand kinds. The deciding constituent is the arithmetic or comparison
// in the instruction's source window; its two operands are the top two
// stack slots of the verifier's state at that PC (loads and const pushes
// earlier in a fused window have already deposited their kinds there, so
// one rule covers plain ops, pairs, and quads alike).
func (p *Program) specializeOp(fi int, d *DInstr) DOp {
	op := d.Op
	pc := int(d.Src)
	switch {
	case op >= DAdd && op <= DMod:
	case op >= DFConstAdd && op <= DFConstMod:
		pc++ // const push, then the arithmetic
	case op >= DFEqJz && op <= DFGeJz:
	case op >= DFAddStoreM && op <= DFModStoreM:
	case op >= DFMMLtJz && op <= DFMCGeJz:
		pc += 2 // two loads, then the comparison
	case op >= DFMCAddStoreM && op <= DFLCModStoreL:
		pc += 2 // load and const, then the arithmetic
	default:
		return op
	}
	depth := p.StackDepth(fi, pc)
	if depth < 2 {
		return op
	}
	a := p.SlotKind(fi, pc, depth-2)
	b := p.SlotKind(fi, pc, depth-1)
	ii := a == KindInt && b == KindInt
	nn := a == KindNum && b == KindNum
	switch {
	case op >= DAdd && op <= DMod:
		off := op - DAdd
		switch {
		case ii:
			return DAddII + off
		case nn:
			return DAddNN + off
		case a == KindInt && b == KindNum:
			return DAddIN + off
		}
	case op >= DFConstAdd && op <= DFConstMod:
		if nn {
			return DFConstAddNN + (op - DFConstAdd)
		}
	case op >= DFEqJz && op <= DFGeJz:
		if ii {
			return DFEqJzII + (op - DFEqJz)
		}
	case op >= DFAddStoreM && op <= DFModStoreM:
		off := op - DFAddStoreM
		if ii {
			return DFAddStoreMII + off
		}
		if nn {
			return DFAddStoreMNN + off
		}
	case op >= DFMMLtJz && op <= DFMCGeJz:
		if ii {
			return DFMMLtJzII + (op - DFMMLtJz)
		}
	default: // quad increments, Messenger then local
		off := op - DFMCAddStoreM
		divisive := off%5 >= 3 // div, mod
		if ii && !(divisive && d.Val.AsInt() == 0) {
			return DFMCAddStoreMII + off
		}
	}
	return op
}

// buildLowered translates every function. Two passes per function: decide
// fusion boundaries and build the PC map, then emit with jump targets
// resolved through that map; LowerKind runs a third pass swapping opcodes
// for kind-specialized variants where the verifier's proofs allow.
func (p *Program) buildLowered(mode LowerMode) *Lowered {
	fuse := mode != LowerPlain
	low := &Lowered{Funcs: make([]DFunc, len(p.Funcs))}
	slotOf := p.vars.Slot
	for fi := range p.Funcs {
		code := p.Funcs[fi].Code
		// Jump targets must start a direct instruction: a branch into the
		// interior of a fused pair would skip its first constituent.
		target := make([]bool, len(code))
		for _, ins := range code {
			if ins.Op == OpJmp || ins.Op == OpJz {
				target[ins.A] = true
			}
		}
		s2d := make([]int32, len(code))
		fusedAt := make([]DOp, len(code))
		n := int32(0)
		for pc := 0; pc < len(code); {
			s2d[pc] = n
			// Quads first (a pair would otherwise greedily eat the loop
			// head's first two instructions), then pairs. A jump target in
			// the window interior blocks fusion — every branch destination
			// must start a direct instruction.
			if fuse && pc+3 < len(code) && !target[pc+1] && !target[pc+2] && !target[pc+3] {
				if qop := fuseQuad(code[pc], code[pc+1], code[pc+2], code[pc+3]); qop != DNop {
					fusedAt[pc] = qop
					s2d[pc+1], s2d[pc+2], s2d[pc+3] = -1, -1, -1
					n++
					pc += 4
					continue
				}
			}
			if fuse && pc+1 < len(code) && !target[pc+1] {
				if fop := p.fusePair(code[pc], code[pc+1]); fop != DNop {
					fusedAt[pc] = fop
					s2d[pc+1] = -1
					n++
					pc += 2
					continue
				}
			}
			n++
			pc++
		}
		out := make([]DInstr, 0, n)
		for pc := 0; pc < len(code); {
			ins := code[pc]
			d := DInstr{Src: int32(pc), N: 1}
			if fop := fusedAt[pc]; fop != DNop && dopN[fop] == 4 {
				b, last := code[pc+1], code[pc+3]
				d.Op, d.N = fop, 4
				switch {
				case fop >= DFMMLtJz && fop <= DFMMGeJz:
					d.A, d.B, d.C = slotOf[ins.A], slotOf[b.A], s2d[last.A]
				case fop >= DFMCLtJz && fop <= DFMCGeJz:
					d.A, d.Val, d.C = slotOf[ins.A], p.Consts[b.A], s2d[last.A]
				case fop >= DFLCLtJz && fop <= DFLCGeJz:
					d.A, d.Val, d.C = ins.A, p.Consts[b.A], s2d[last.A]
				case fop >= DFMCAddStoreM && fop <= DFMCModStoreM:
					d.A, d.Val, d.B = slotOf[ins.A], p.Consts[b.A], slotOf[last.A]
				default: // DFLCAddStoreL..DFLCModStoreL
					d.A, d.Val, d.B = ins.A, p.Consts[b.A], last.A
				}
				low.Fused++
				out = append(out, d)
				pc += 4
				continue
			}
			if fop := fusedAt[pc]; fop != DNop {
				nxt := code[pc+1]
				d.Op, d.N = fop, 2
				switch fop {
				case DFConstAdd, DFConstSub, DFConstMul, DFConstDiv, DFConstMod:
					d.Val = p.Consts[ins.A]
				case DFLoadMConst:
					d.A, d.Val = slotOf[ins.A], p.Consts[nxt.A]
				case DFLoadLConst:
					d.A, d.Val = ins.A, p.Consts[nxt.A]
				case DFLoadMM:
					d.A, d.B = slotOf[ins.A], slotOf[nxt.A]
				case DFLoadLL:
					d.A, d.B = ins.A, nxt.A
				case DFEqJz, DFNeJz, DFLtJz, DFLeJz, DFGtJz, DFGeJz:
					d.A = s2d[nxt.A]
				case DFAddStoreM, DFSubStoreM, DFMulStoreM, DFDivStoreM, DFModStoreM:
					d.A = slotOf[nxt.A]
				default: // DF*StoreL
					d.A = nxt.A
				}
				low.Fused++
				out = append(out, d)
				pc += 2
				continue
			}
			switch ins.Op {
			case OpNop:
				d.Op = DNop
			case OpConst:
				c := p.Consts[ins.A]
				d.Op, d.Val = DConst, c
				if !constImmutable(c) {
					d.Op = DConstClone
				}
			case OpLoadM:
				d.Op, d.A = DLoadM, slotOf[ins.A]
			case OpStoreM:
				d.Op, d.A = DStoreM, slotOf[ins.A]
			case OpLoadN:
				d.Op, d.Name = DLoadN, p.Names[ins.A]
			case OpStoreN:
				d.Op, d.Name = DStoreN, p.Names[ins.A]
			case OpLoadNet:
				d.Op, d.Name = DLoadNet, p.Names[ins.A]
			case OpLoadL:
				d.Op, d.A = DLoadL, ins.A
			case OpStoreL:
				d.Op, d.A = DStoreL, ins.A
			case OpPop:
				d.Op = DPop
			case OpDup:
				d.Op = DDup
			case OpDup2:
				d.Op = DDup2
			case OpAdd:
				d.Op = DAdd
			case OpSub:
				d.Op = DSub
			case OpMul:
				d.Op = DMul
			case OpDiv:
				d.Op = DDiv
			case OpMod:
				d.Op = DMod
			case OpNeg:
				d.Op = DNeg
			case OpNot:
				d.Op = DNot
			case OpEq:
				d.Op = DEq
			case OpNe:
				d.Op = DNe
			case OpLt:
				d.Op = DLt
			case OpLe:
				d.Op = DLe
			case OpGt:
				d.Op = DGt
			case OpGe:
				d.Op = DGe
			case OpJmp:
				d.Op, d.A = DJmp, s2d[ins.A]
			case OpJz:
				d.Op, d.A = DJz, s2d[ins.A]
			case OpIndex:
				d.Op = DIndex
			case OpSetIndex:
				d.Op, d.B = DSetIndex, ins.B
			case OpArr:
				d.Op, d.A = DArr, ins.A
			case OpCallFunc:
				d.Op, d.A, d.B = DCallFunc, ins.A, ins.B
			case OpRet:
				d.Op = DRet
			case OpCallNative:
				d.Op, d.Name, d.A, d.B = DCallNative, p.Names[ins.A], NativeIndex(p.Names[ins.A]), ins.B
			case OpHop:
				d.Op, d.A = DHop, ins.A
			case OpCreate:
				d.Op, d.A, d.B = DCreate, ins.A, ins.B
			case OpDelete:
				d.Op, d.A = DDelete, ins.A
			case OpSchedAbs:
				d.Op = DSchedAbs
			case OpSchedDlt:
				d.Op = DSchedDlt
			default: // OpEnd (Validate rejects anything else)
				d.Op = DEnd
			}
			out = append(out, d)
			pc++
		}
		if mode == LowerKind {
			for i := range out {
				out[i].Op = p.specializeOp(fi, &out[i])
			}
		}
		low.Funcs[fi] = DFunc{Code: out, S2D: s2d}
	}
	return low
}

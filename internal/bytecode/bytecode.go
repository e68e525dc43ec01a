// Package bytecode defines the instruction set and program representation
// that MSL scripts compile to.
//
// The paper (§2.1) compiles Messenger scripts "into a form of byte code for
// more efficient transport and parsing". A Program here is the unit stored
// in the daemons' shared script registry: because the paper's system relies
// on a shared file system, Messengers do not carry their code between nodes
// — only a content hash travels with the Messenger, and the receiving daemon
// loads the Program from the registry (or requests it once and caches it).
package bytecode

import (
	"crypto/sha256"
	"fmt"
	"sync/atomic"

	"messengers/internal/value"
	"messengers/internal/wire"
)

// Op is an opcode.
type Op uint8

// The instruction set. Stack effects are noted as (pops -> pushes).
const (
	OpNop Op = iota
	// OpConst pushes Consts[A]. (0 -> 1)
	OpConst
	// OpLoadM pushes Messenger variable Names[A] (nil if unset). (0 -> 1)
	OpLoadM
	// OpStoreM pops into Messenger variable Names[A]. (1 -> 0)
	OpStoreM
	// OpLoadN pushes node variable Names[A] of the current logical node.
	OpLoadN
	// OpStoreN pops into node variable Names[A].
	OpStoreN
	// OpLoadNet pushes network variable Names[A] ($address, $last, ...).
	OpLoadNet
	// OpLoadL pushes local slot A of the current frame.
	OpLoadL
	// OpStoreL pops into local slot A.
	OpStoreL
	// OpPop discards the top of stack. (1 -> 0)
	OpPop
	// OpDup duplicates the top of stack. (1 -> 2)
	OpDup
	// OpDup2 duplicates the top two stack values. (2 -> 4)
	OpDup2

	// Arithmetic and logic. (2 -> 1) except OpNeg/OpNot (1 -> 1).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// OpJmp jumps to code index A.
	OpJmp
	// OpJz pops and jumps to A when falsy. (1 -> 0)
	OpJz

	// OpIndex pops index then base, pushes base[index]. (2 -> 1)
	OpIndex
	// OpSetIndex pops value, index, base (value on top) and performs
	// base[index] = value in place. When B != 0 the value is pushed back
	// (assignment-as-expression). (3 -> 0 or 1)
	OpSetIndex
	// OpArr pops A elements and pushes an array of them. (A -> 1)
	OpArr

	// OpCallFunc calls script function Funcs[A] with B arguments on the
	// stack. The callee pushes its return value.
	OpCallFunc
	// OpRet pops the return value and returns from the current frame; in
	// the main body it terminates the Messenger.
	OpRet
	// OpCallNative pauses the VM to invoke builtin or registered native
	// function Names[A] with B stack arguments; the daemon pushes the
	// result and resumes. (B -> 1)
	OpCallNative

	// OpHop pauses with a hop request of A destination arms; 3 values
	// (ln, ll, ldir) were pushed per arm. The Messenger is replicated to
	// every matching destination and this VM instance ceases to exist.
	OpHop
	// OpCreate pauses with a create request of A arms (6 values each:
	// ln, ll, ldir, dn, dl, ddir); B!=0 means ALL.
	OpCreate
	// OpDelete is OpHop that also deletes traversed links.
	OpDelete

	// OpSchedAbs pops an absolute virtual time and suspends the Messenger
	// until the global virtual time reaches it (M_sched_time_abs).
	OpSchedAbs
	// OpSchedDlt pops a delta and suspends for that virtual-time interval
	// (M_sched_time_dlt).
	OpSchedDlt

	// OpEnd terminates the Messenger.
	OpEnd

	numOps
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpLoadM: "loadm", OpStoreM: "storem",
	OpLoadN: "loadn", OpStoreN: "storen", OpLoadNet: "loadnet",
	OpLoadL: "loadl", OpStoreL: "storel", OpPop: "pop", OpDup: "dup",
	OpDup2: "dup2",
	OpAdd:  "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpNot: "not", OpEq: "eq", OpNe: "ne", OpLt: "lt",
	OpLe: "le", OpGt: "gt", OpGe: "ge", OpJmp: "jmp", OpJz: "jz",
	OpIndex: "index", OpSetIndex: "setindex", OpArr: "arr",
	OpCallFunc: "callf", OpRet: "ret", OpCallNative: "calln",
	OpHop: "hop", OpCreate: "create", OpDelete: "delete",
	OpSchedAbs: "schedabs", OpSchedDlt: "scheddlt", OpEnd: "end",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one fixed-shape instruction.
type Instr struct {
	Op   Op
	A, B int32
}

// FuncInfo is one compiled function. Funcs[0] is the script's main body.
type FuncInfo struct {
	Name      string
	NumParams int
	NumLocals int // including parameters
	Code      []Instr
}

// Program is a compiled MSL script.
type Program struct {
	// Name is the registry name the script was compiled under.
	Name string
	// Source preserves the script text for tooling and the style metrics
	// (T3); it is not shipped on hops.
	Source string
	Consts []value.Value
	Names  []string
	Funcs  []FuncInfo

	// meta and verified are produced by Validate (see verify.go). They are
	// derived facts, deliberately excluded from Encode/Hash: a program
	// arriving over the wire is re-verified locally, never trusted.
	meta     []funcMeta
	verified bool

	// vars is the Messenger-variable table (vartable.go); derived like meta.
	vars *VarTable

	// lowerCaches holds the lazily built direct instruction streams
	// (see lower.go); derived like meta, reset by Validate.
	lowerCaches

	// hash memoises Hash for a verified program (every remote hop and
	// create stamps it on the message); derived like meta, reset by
	// Validate. Atomic because daemons share registered programs.
	hash atomic.Pointer[Hash]
}

// Hash returns the content hash identifying this program in the shared
// script registry (what travels with a Messenger instead of its code).
type Hash [16]byte

// String renders the hash in hex.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:]) }

// Hash returns the program's content hash over its encoded form
// (excluding Source, so formatting changes to comments do not matter... the
// encoded form includes code, consts, and names only).
//
// A verified program is not mutated without a re-Validate, so its hash is
// computed once; an unverified program is hashed afresh on every call.
func (p *Program) Hash() Hash {
	if !p.verified {
		return p.computeHash()
	}
	if h := p.hash.Load(); h != nil {
		return *h
	}
	h := p.computeHash()
	p.hash.Store(&h)
	return h
}

func (p *Program) computeHash() Hash {
	sum := sha256.Sum256(p.encode(false))
	var h Hash
	copy(h[:], sum[:16])
	return h
}

// encode is the program's serialized form: name, constants, names and code,
// which is what Hash covers, then the source text when asked for.
func (p *Program) encode(source bool) []byte {
	e := wire.AppendingTo(nil)
	e.Str(p.Name)
	e.U32(uint32(len(p.Consts)))
	for _, c := range p.Consts {
		c.AppendTo(e)
	}
	e.U32(uint32(len(p.Names)))
	for _, n := range p.Names {
		e.Str(n)
	}
	e.U32(uint32(len(p.Funcs)))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		e.Str(f.Name)
		e.U32(uint32(f.NumParams))
		e.U32(uint32(f.NumLocals))
		e.U32(uint32(len(f.Code)))
		for _, ins := range f.Code {
			e.U8(byte(ins.Op))
			e.U32(uint32(ins.A))
			e.U32(uint32(ins.B))
		}
	}
	if source {
		e.Str(p.Source)
	}
	//lint:stickyerr strings and constants come from script text or from Decode, whose reader holds them to the same MaxLen and MaxDepth
	return e.Bytes()
}

// Encode serializes the program (including source) for the wire or disk.
func (p *Program) Encode() []byte { return p.encode(true) }

// Decode deserializes a program produced by Encode and verifies it. The
// source text may be absent (an encoding that stops after the code), but
// not cut short, and nothing may follow it.
func Decode(buf []byte) (*Program, error) {
	d := wire.NewDecoder(buf)
	p := &Program{Name: d.Str()}
	// A constant takes at least its tag byte, a name its length prefix, a
	// function its name's prefix and three counts, an instruction nine bytes.
	p.Consts = make([]value.Value, d.Count(1))
	for i := 0; i < len(p.Consts) && d.Err() == nil; i++ {
		p.Consts[i] = value.DecodeFrom(&d)
	}
	p.Names = make([]string, d.Count(4))
	for i := 0; i < len(p.Names) && d.Err() == nil; i++ {
		p.Names[i] = d.Str()
	}
	p.Funcs = make([]FuncInfo, d.Count(16))
	for i := 0; i < len(p.Funcs) && d.Err() == nil; i++ {
		f := &p.Funcs[i]
		f.Name = d.Str()
		f.NumParams, f.NumLocals = int(d.U32()), int(d.U32())
		f.Code = make([]Instr, d.Count(9))
		for j := range f.Code {
			op := Op(d.U8())
			if op >= numOps {
				d.Fail(fmt.Errorf("unknown opcode %d in %q", op, f.Name))
				break
			}
			f.Code[j] = Instr{Op: op, A: int32(d.U32()), B: int32(d.U32())}
		}
	}
	if d.Remaining() > 0 {
		p.Source = d.Str()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("bytecode: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

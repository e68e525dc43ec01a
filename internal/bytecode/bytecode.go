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
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"messengers/internal/value"
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

	// Messenger-variable slot table for the kind analysis (kinds.go):
	// every name the program loads or stores, in first-reference order,
	// with a bit marking names that are ever stored. Derived like meta.
	mvarNames  []string
	mvarIdx    map[string]int
	mvarStored []bool

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
	sum := sha256.Sum256(p.encodeForHash())
	var h Hash
	copy(h[:], sum[:16])
	return h
}

func (p *Program) encodeForHash() []byte {
	var buf []byte
	buf = appendString(buf, p.Name)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Consts)))
	for _, c := range p.Consts {
		// Constants come from script literals (or a decoded program, whose
		// codec enforces the same bound), so they can never exceed the
		// encoder's length limit.
		buf, _ = value.Append(buf, c)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Names)))
	for _, n := range p.Names {
		buf = appendString(buf, n)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Funcs)))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		buf = appendString(buf, f.Name)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.NumParams))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.NumLocals))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Code)))
		for _, ins := range f.Code {
			buf = append(buf, byte(ins.Op))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ins.A))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ins.B))
		}
	}
	return buf
}

// Encode serializes the program (including source) for the wire or disk.
func (p *Program) Encode() []byte {
	buf := p.encodeForHash()
	buf = appendString(buf, p.Source)
	return buf
}

// WireSize is the encoded size, used to charge transfer costs when code
// caching is disabled (ablation A4).
func (p *Program) WireSize() int { return len(p.encodeForHash()) }

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.buf) {
		return 0, fmt.Errorf("bytecode: truncated program")
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) > len(r.buf)-r.pos {
		return "", fmt.Errorf("bytecode: truncated string")
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// Decode deserializes a program produced by Encode.
func Decode(buf []byte) (*Program, error) {
	r := &reader{buf: buf}
	p := &Program{}
	var err error
	if p.Name, err = r.str(); err != nil {
		return nil, err
	}
	nc, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(nc) > len(r.buf)-r.pos {
		return nil, fmt.Errorf("bytecode: constant count %d exceeds buffer", nc)
	}
	p.Consts = make([]value.Value, nc)
	for i := range p.Consts {
		v, n, err := value.Decode(r.buf[r.pos:])
		if err != nil {
			return nil, fmt.Errorf("bytecode: const %d: %w", i, err)
		}
		p.Consts[i] = v
		r.pos += n
	}
	nn, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(nn) > (len(r.buf)-r.pos)/4 {
		return nil, fmt.Errorf("bytecode: name count %d exceeds buffer", nn)
	}
	p.Names = make([]string, nn)
	for i := range p.Names {
		if p.Names[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	nf, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(nf) > (len(r.buf)-r.pos)/16 {
		return nil, fmt.Errorf("bytecode: function count %d exceeds buffer", nf)
	}
	p.Funcs = make([]FuncInfo, nf)
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if f.Name, err = r.str(); err != nil {
			return nil, err
		}
		np, err := r.u32()
		if err != nil {
			return nil, err
		}
		nl, err := r.u32()
		if err != nil {
			return nil, err
		}
		f.NumParams, f.NumLocals = int(np), int(nl)
		ni, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(ni) > (len(r.buf)-r.pos)/9 {
			return nil, fmt.Errorf("bytecode: truncated code for %q", f.Name)
		}
		f.Code = make([]Instr, ni)
		for j := range f.Code {
			op := Op(r.buf[r.pos])
			r.pos++
			a, err := r.u32()
			if err != nil {
				return nil, err
			}
			b, err := r.u32()
			if err != nil {
				return nil, err
			}
			if op >= numOps {
				return nil, fmt.Errorf("bytecode: unknown opcode %d in %q", op, f.Name)
			}
			f.Code[j] = Instr{Op: op, A: int32(a), B: int32(b)}
		}
	}
	if p.Source, err = r.str(); err != nil {
		// Source is optional for older encodings; tolerate absence.
		p.Source = ""
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Func returns function i, panicking on a bad index (compiler bug).
func (p *Program) Func(i int) *FuncInfo {
	return &p.Funcs[i]
}

// FindFunc returns the index of the named function, or -1.
func (p *Program) FindFunc(name string) int {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return i
		}
	}
	return -1
}

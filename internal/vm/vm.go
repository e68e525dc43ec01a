// Package vm implements the resumable stack machine that executes compiled
// Messenger scripts.
//
// The VM is the per-Messenger interpreter state: program counter, call
// frames, operand stack, and the Messenger-variable area. It executes
// bytecode until it reaches one of the paper's interruption points — a
// navigational statement (hop/create/delete), a native-mode function call,
// a virtual-time suspension, or termination — and returns control to the
// daemon with a Result describing why it stopped. Everything in the VM is
// serializable (Snapshot/Restore) and clonable (Clone), which is what lets
// a Messenger hop between daemons mid-program and replicate itself across
// multiple matching links.
//
// Between interruption points execution is atomic with respect to the
// owning daemon (the paper's modified non-preemptive scheduling policy), so
// script-level critical sections need no locks.
package vm

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"messengers/internal/bytecode"
	"messengers/internal/value"
)

// Pause says why the VM returned control to the daemon.
type Pause uint8

// Pause reasons.
const (
	// PauseEnd: the Messenger terminated (OpEnd or main-body return).
	PauseEnd Pause = iota
	// PauseHop: a hop statement; the daemon replicates the Messenger to
	// all matching destinations and this instance ceases to exist.
	PauseHop
	// PauseCreate: a create statement.
	PauseCreate
	// PauseDelete: a delete statement (hop that deletes traversed links).
	PauseDelete
	// PauseNative: a native-function invocation; the daemon runs the
	// function and resumes the VM with PushResult.
	PauseNative
	// PauseSchedAbs: M_sched_time_abs suspension until an absolute GVT.
	PauseSchedAbs
	// PauseSchedDlt: M_sched_time_dlt suspension for a GVT interval.
	PauseSchedDlt
)

// String names the pause reason.
func (p Pause) String() string {
	switch p {
	case PauseEnd:
		return "end"
	case PauseHop:
		return "hop"
	case PauseCreate:
		return "create"
	case PauseDelete:
		return "delete"
	case PauseNative:
		return "native"
	case PauseSchedAbs:
		return "sched_abs"
	case PauseSchedDlt:
		return "sched_dlt"
	default:
		return fmt.Sprintf("pause(%d)", uint8(p))
	}
}

// NavArm is one resolved destination specification triple (plus the daemon
// triple for create).
type NavArm struct {
	LN, LL, LDir value.Value
	DN, DL, DDir value.Value
}

// Result describes an interruption point.
type Result struct {
	Pause  Pause
	Arms   []NavArm      // hop/create/delete
	All    bool          // create ... ALL
	Native string        // native function name
	Args   []value.Value // native arguments
	Time   float64       // sched_abs target or sched_dlt delta
	Steps  int64         // instructions executed in this segment
}

// Host supplies the node-local context the VM needs while executing:
// node variables of the current logical node, network variables, and an
// output sink for print.
type Host interface {
	// NodeVar reads a node variable (nil Value when unset).
	NodeVar(name string) value.Value
	// SetNodeVar writes a node variable.
	SetNodeVar(name string, v value.Value)
	// NetVar reads a network variable such as $address or $last.
	NetVar(name string) (value.Value, bool)
	// Print receives output from the print builtin.
	Print(s string)
}

// frame is one call-stack entry.
type frame struct {
	fn     int
	pc     int
	locals []value.Value
}

// NumOps is the size of the opcode space, for Profile arrays.
const NumOps = int(bytecode.OpEnd) + 1

// Profile accumulates per-opcode execution counts — the interpreter
// profile behind the paper's §2.3 interpretation-overhead discussion. A
// profile is attached per daemon (execution is daemon-confined) and summed
// into the obs metrics registry post-run; a nil profile costs the
// interpreter loop one predictable branch.
type Profile struct {
	Counts [NumOps]int64
}

// OpName names profile slot i for metric labels.
func OpName(i int) string { return bytecode.Op(i).String() }

// VM is the execution state of one Messenger.
type VM struct {
	prog *bytecode.Program

	// vars is the Messenger-variable area, indexed by the program's
	// VarTable; a slot holds a variable when it is not nil or present
	// marks it (only a plain store, New and a restore leave nil there).
	// tail holds the injected variables the program never references,
	// sorted by name and never written after New or a restore (docs/VM.md).
	vars    []value.Value
	present []bool
	tail    []namedVar

	stack  []value.Value
	frames []frame
	prof   *Profile
	meter  StepMeter

	// Fast-path state (see threaded.go). arena backs locals and the stack
	// so a Messenger's values sit in one slab; stackBuf is the raw operand
	// stack backing the threaded loop indexes into; tx is the reusable
	// per-segment execution scratch.
	dispatch Dispatch
	arena    *value.Arena
	stackBuf []value.Value
	tx       *texec

	// segThreaded counts the source instructions the last Run segment
	// executed on the threaded path.
	segThreaded int64
}

// SetProfile attaches (or detaches, with nil) an opcode profile. The
// daemon re-attaches its own profile before every segment, so a Messenger
// hopping between daemons is counted where it executes.
func (m *VM) SetProfile(p *Profile) { m.prof = p }

// StepMeter is an external instruction budget. When attached, Run caps each
// segment at the meter's remaining allowance in addition to its own
// maxSteps limit, and debits the instructions it actually executed when the
// segment ends — including segments that end in an error. An exhausted
// allowance surfaces as ErrStepBudget, which admission layers treat as a
// quota eviction rather than a program bug. Implementations are shared
// across daemons (a session's clones execute concurrently) and must be
// safe for concurrent use.
type StepMeter interface {
	// Allowance returns the remaining instruction allowance; values <= 0
	// mean the budget is exhausted.
	Allowance() int64
	// Charge debits n executed instructions from the allowance.
	Charge(n int64)
}

// ErrStepBudget reports that an attached StepMeter's allowance ran out.
// Callers distinguish it from ordinary runtime errors with errors.Is.
var ErrStepBudget = errors.New("instruction step budget exhausted")

// SetMeter attaches (or detaches, with nil) a step meter. Like the
// profile, the meter is daemon-local scheduling state: it does not travel
// in snapshots or clones, and the daemon re-attaches the owning session's
// meter before every segment.
func (m *VM) SetMeter(sm StepMeter) { m.meter = sm }

// arenaHeadroom is the extra Value capacity a VM's arena carries beyond
// the verifier-proven main-frame need (NumLocals + MaxStack), absorbing a
// few levels of script calls before falling back to the heap. Kept small:
// a server holds many paused Messengers, and every slab Value is live
// memory.
const arenaHeadroom = 8

// namedVar is one variable of a VM's tail.
type namedVar struct {
	name string
	v    value.Value
}

// newVM returns a VM of a verified prog that holds no state yet. Its
// variable area is sized by the program's table, its value arena by the
// verifier's metadata for the main body: the locals plus the proven
// worst-case operand stack, with a little call headroom.
func newVM(prog *bytecode.Program) *VM {
	n := len(prog.VarTable().Names)
	return &VM{prog: prog, vars: make([]value.Value, n), present: make([]bool, n),
		arena: value.NewArena(prog.Funcs[0].NumLocals + prog.MaxStack(0) + arenaHeadroom)}
}

// New returns a VM at the start of the program's main body with the given
// initial Messenger variables (may be nil). The VM takes the values, not
// the map. prog must be verified, as compile.Compile and bytecode.Decode
// leave it: New panics otherwise.
func New(prog *bytecode.Program, vars map[string]value.Value) *VM {
	if !prog.Verified() {
		panic(fmt.Sprintf("vm: New of unverified program %q", prog.Name))
	}
	m, vt := newVM(prog), prog.VarTable()
	for _, name := range slices.Sorted(maps.Keys(vars)) {
		if s, ok := vt.Lookup(name); ok {
			m.vars[s], m.present[s] = vars[name], true
		} else {
			m.tail = append(m.tail, namedVar{name, vars[name]})
		}
	}
	m.frames = []frame{{fn: 0, locals: m.arena.Values(prog.Funcs[0].NumLocals)}}
	return m
}

// Program returns the program this VM executes.
func (m *VM) Program() *bytecode.Program { return m.prog }

// Vars returns a deep copy of the Messenger variables (the state that
// travels with the Messenger) by name.
func (m *VM) Vars() map[string]value.Value { //lint:deadcode test support: the vm and compile tests read results here
	out := map[string]value.Value{}
	m.eachVar(func(name string, v value.Value) { out[name] = v.Clone() })
	return out
}

// ThreadedSteps reports how many of the last Run segment's source
// instructions ran on the threaded fast path; the rest of Result.Steps ran
// on the switch loop. Feeds the vm.dispatch.* metrics.
func (m *VM) ThreadedSteps() int64 { return m.segThreaded }

// ArenaBytes reports the memory pinned by the VM's value arena (the
// vm.arena.bytes metric).
func (m *VM) ArenaBytes() int64 { return m.arena.Bytes() }

// PushResult delivers a native function's return value before resuming.
func (m *VM) PushResult(v value.Value) { m.push(v) }

// Clone deep-copies the VM (Messenger replication on multi-destination
// hops). The clone gets its own arena — replicas outlive each other and
// may execute on different daemons — and shares only the tail, which
// nothing writes.
func (m *VM) Clone() *VM {
	c := newVM(m.prog)
	cloneValues(c.vars, m.vars)
	copy(c.present, m.present)
	c.tail = m.tail
	c.stack = cloneValues(c.arena.Values(len(m.stack)), m.stack)
	c.frames = make([]frame, len(m.frames))
	for i, fr := range m.frames {
		c.frames[i] = frame{fn: fr.fn, pc: fr.pc, locals: cloneValues(c.arena.Values(len(fr.locals)), fr.locals)}
	}
	return c
}

// cloneValues deep-copies src into dst, which it returns.
func cloneValues(dst, src []value.Value) []value.Value {
	for i, v := range src {
		dst[i] = v.Clone()
	}
	return dst
}

func (m *VM) push(v value.Value) { m.stack = append(m.stack, v) }

func (m *VM) pop() value.Value {
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

func (m *VM) top() *frame { return &m.frames[len(m.frames)-1] }

// runtimeError annotates an error with the current program location.
func (m *VM) runtimeError(format string, args ...any) error {
	f := m.top()
	fname := m.prog.Funcs[f.fn].Name
	return fmt.Errorf("msl runtime (%s@%d in %s): %s", m.prog.Name, f.pc-1, fname, fmt.Sprintf(format, args...))
}

// Run executes until the next interruption point or until maxSteps
// instructions have executed (0 means no limit; exceeding the limit is a
// runtime error — a runaway Messenger). On error the Messenger must be
// destroyed by the daemon.
//
// Programs execute on the token-threaded fast path over the lowered
// instruction stream (threaded.go) unless the dispatch mode pins the
// switch loop; the tail of any segment the fast path hands back (step
// budget about to trip) runs on the switch loop below. Both loops share the cumulative step counter, so meter
// charges and Result.Steps are identical whichever executed.
func (m *VM) Run(host Host, maxSteps int64) (Result, error) {
	var steps int64
	m.segThreaded = 0
	// An attached meter tightens the segment limit to the session's
	// remaining allowance and is debited for what actually executed, on
	// every exit path. metered distinguishes "the meter capped us" (quota
	// eviction, ErrStepBudget) from "the daemon's runaway guard fired"
	// (runtime error).
	limit, metered := maxSteps, false
	if m.meter != nil {
		a := m.meter.Allowance()
		if a <= 0 {
			return Result{}, fmt.Errorf("msl (%s): %w", m.prog.Name, ErrStepBudget)
		}
		if limit <= 0 || a < limit {
			limit, metered = a, true
		}
		defer func() { m.meter.Charge(steps) }()
	}
	if mode := m.dispatch; mode != DispatchSwitch {
		lm := bytecode.LowerPlain
		switch mode {
		case DispatchFused:
			lm = bytecode.LowerFused
		case DispatchSpecialized, DispatchAuto:
			lm = bytecode.LowerKind
		}
		res, err, done := m.runThreaded(host, m.prog.Lowered(lm), limit, &steps)
		m.segThreaded = steps // the counter starts the segment at 0
		if done {
			return res, err
		}
	}
	return m.runSwitch(host, maxSteps, limit, metered, &steps)
}

// runSwitch is the classic switch-dispatch interpreter: the budget-boundary
// tail for threaded segments, and the oracle the differential tests hold
// the fast path to. steps is the
// segment-cumulative counter shared with the threaded loop.
func (m *VM) runSwitch(host Host, maxSteps, limit int64, metered bool, stepsp *int64) (Result, error) {
	prof := m.prof
	// The verifier proved the control flow: every jump target is in range
	// and no path falls off the end of the code, so no step checks the PC
	// (Restore vets resume PCs against the same metadata).
	vt := m.prog.VarTable()
	steps := *stepsp
	defer func() { *stepsp = steps }()
	for {
		f := m.top()
		ins := m.prog.Funcs[f.fn].Code[f.pc]
		f.pc++
		steps++
		if prof != nil && int(ins.Op) < NumOps {
			prof.Counts[ins.Op]++
		}
		if limit > 0 && steps > limit {
			if metered {
				// The tripping instruction was fetched but not executed:
				// roll it back so the deferred Charge debits exactly the
				// executed count and a session can never exceed its budget.
				steps--
				if prof != nil && int(ins.Op) < NumOps {
					prof.Counts[ins.Op]--
				}
				return Result{}, fmt.Errorf("msl (%s): %w after %d steps", m.prog.Name, ErrStepBudget, steps)
			}
			return Result{}, m.runtimeError("instruction budget of %d exceeded (runaway Messenger?)", maxSteps)
		}

		switch ins.Op {
		case bytecode.OpNop:

		case bytecode.OpConst:
			m.push(m.prog.Consts[ins.A].Clone())

		case bytecode.OpLoadM:
			m.push(m.vars[vt.Slot[ins.A]])
		case bytecode.OpStoreM:
			s := vt.Slot[ins.A]
			m.vars[s], m.present[s] = m.pop(), true

		case bytecode.OpLoadN:
			m.push(host.NodeVar(m.prog.Names[ins.A]))
		case bytecode.OpStoreN:
			host.SetNodeVar(m.prog.Names[ins.A], m.pop())

		case bytecode.OpLoadNet:
			name := m.prog.Names[ins.A]
			v, ok := host.NetVar(name)
			if !ok {
				return Result{}, m.runtimeError("unknown network variable $%s", name)
			}
			m.push(v)

		case bytecode.OpLoadL:
			m.push(f.locals[ins.A])
		case bytecode.OpStoreL:
			f.locals[ins.A] = m.pop()

		case bytecode.OpPop:
			m.pop()
		case bytecode.OpDup:
			m.push(m.stack[len(m.stack)-1])
		case bytecode.OpDup2:
			n := len(m.stack)
			m.push(m.stack[n-2])
			m.push(m.stack[n-1])

		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod:
			b, a := m.pop(), m.pop()
			r, err := arith(ins.Op, a, b)
			if err != nil {
				return Result{}, m.runtimeError("%v", err)
			}
			m.push(r)

		case bytecode.OpNeg:
			a := m.pop()
			switch a.Kind() {
			case value.KindInt:
				m.push(value.Int(-a.AsInt()))
			case value.KindNum:
				m.push(value.Num(-a.AsNum()))
			default:
				return Result{}, m.runtimeError("cannot negate %v", a.Kind())
			}
		case bytecode.OpNot:
			m.push(value.Bool(!m.pop().Truthy()))

		case bytecode.OpEq:
			b, a := m.pop(), m.pop()
			m.push(value.Bool(a.Equal(b)))
		case bytecode.OpNe:
			b, a := m.pop(), m.pop()
			m.push(value.Bool(!a.Equal(b)))
		case bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
			b, a := m.pop(), m.pop()
			cmp, ok := a.Compare(b)
			if !ok {
				return Result{}, m.runtimeError("cannot compare %v with %v", a.Kind(), b.Kind())
			}
			var r bool
			switch ins.Op {
			case bytecode.OpLt:
				r = cmp < 0
			case bytecode.OpLe:
				r = cmp <= 0
			case bytecode.OpGt:
				r = cmp > 0
			default:
				r = cmp >= 0
			}
			m.push(value.Bool(r))

		case bytecode.OpJmp:
			f.pc = int(ins.A)
		case bytecode.OpJz:
			if !m.pop().Truthy() {
				f.pc = int(ins.A)
			}

		case bytecode.OpIndex:
			idx, base := m.pop(), m.pop()
			if !idx.IsNumeric() {
				return Result{}, m.runtimeError("index must be numeric, got %v", idx.Kind())
			}
			v, ok := base.Index(int(idx.AsInt()))
			if !ok {
				return Result{}, m.runtimeError("index %d out of range for %v of length %d", idx.AsInt(), base.Kind(), base.Len())
			}
			m.push(v)

		case bytecode.OpSetIndex:
			val, idx, base := m.pop(), m.pop(), m.pop()
			if !idx.IsNumeric() {
				return Result{}, m.runtimeError("index must be numeric, got %v", idx.Kind())
			}
			if !base.SetIndex(int(idx.AsInt()), val) {
				return Result{}, m.runtimeError("cannot set index %d on %v of length %d", idx.AsInt(), base.Kind(), base.Len())
			}
			if ins.B != 0 {
				m.push(val)
			}

		case bytecode.OpArr:
			n := int(ins.A)
			elems := make([]value.Value, n)
			for i := n - 1; i >= 0; i-- {
				elems[i] = m.pop()
			}
			m.push(value.Arr(elems))

		case bytecode.OpCallFunc:
			fi := int(ins.A)
			argc := int(ins.B)
			callee := &m.prog.Funcs[fi]
			locals := make([]value.Value, callee.NumLocals)
			for i := argc - 1; i >= 0; i-- {
				locals[i] = m.pop()
			}
			if len(m.frames) >= maxCallDepth {
				return Result{}, m.runtimeError("call depth exceeds %d (infinite recursion?)", maxCallDepth)
			}
			m.frames = append(m.frames, frame{fn: fi, locals: locals})

		case bytecode.OpRet:
			if len(m.frames) == 1 {
				// Return from the main body terminates the Messenger.
				return Result{Pause: PauseEnd, Steps: steps}, nil
			}
			ret := m.pop()
			m.frames = m.frames[:len(m.frames)-1]
			m.push(ret)

		case bytecode.OpCallNative:
			name := m.prog.Names[ins.A]
			argc := int(ins.B)
			args := make([]value.Value, argc)
			for i := argc - 1; i >= 0; i-- {
				args[i] = m.pop()
			}
			if bi := bytecode.NativeIndex(name); bi >= 0 {
				r, err := builtins[bi].fn(m, host, args)
				if err != nil {
					return Result{}, m.runtimeError("%s: %v", name, err)
				}
				m.push(r)
				continue
			}
			return Result{Pause: PauseNative, Native: name, Args: args, Steps: steps}, nil

		case bytecode.OpHop, bytecode.OpDelete:
			arms := make([]NavArm, ins.A)
			for i := int(ins.A) - 1; i >= 0; i-- {
				arms[i].LDir = m.pop()
				arms[i].LL = m.pop()
				arms[i].LN = m.pop()
			}
			p := PauseHop
			if ins.Op == bytecode.OpDelete {
				p = PauseDelete
			}
			return Result{Pause: p, Arms: arms, Steps: steps}, nil

		case bytecode.OpCreate:
			arms := make([]NavArm, ins.A)
			for i := int(ins.A) - 1; i >= 0; i-- {
				arms[i].DDir = m.pop()
				arms[i].DL = m.pop()
				arms[i].DN = m.pop()
				arms[i].LDir = m.pop()
				arms[i].LL = m.pop()
				arms[i].LN = m.pop()
			}
			return Result{Pause: PauseCreate, Arms: arms, All: ins.B != 0, Steps: steps}, nil

		case bytecode.OpSchedAbs, bytecode.OpSchedDlt:
			t := m.pop()
			if !t.IsNumeric() {
				return Result{}, m.runtimeError("scheduling time must be numeric, got %v", t.Kind())
			}
			p := PauseSchedAbs
			if ins.Op == bytecode.OpSchedDlt {
				p = PauseSchedDlt
			}
			return Result{Pause: p, Time: t.AsNum(), Steps: steps}, nil

		case bytecode.OpEnd:
			return Result{Pause: PauseEnd, Steps: steps}, nil

		default:
			return Result{}, m.runtimeError("illegal opcode %v", ins.Op)
		}
	}
}

// maxCallDepth bounds script recursion.
const maxCallDepth = 10000

func arith(op bytecode.Op, a, b value.Value) (value.Value, error) {
	// Unset variables behave like C's zero-initialized data: nil is 0 in
	// arithmetic when the other operand is numeric (or nil).
	if a.IsNil() && (b.IsNumeric() || b.IsNil()) {
		a = value.Int(0)
	}
	if b.IsNil() && a.IsNumeric() {
		b = value.Int(0)
	}
	if a.Kind() == value.KindStr || b.Kind() == value.KindStr {
		if op != bytecode.OpAdd {
			return value.Nil(), fmt.Errorf("operator not defined on strings")
		}
		return value.Str(a.Format() + b.Format()), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return value.Nil(), fmt.Errorf("arithmetic on %v and %v", a.Kind(), b.Kind())
	}
	bothInt := a.Kind() == value.KindInt && b.Kind() == value.KindInt
	switch op {
	case bytecode.OpAdd:
		if bothInt {
			return value.Int(a.AsInt() + b.AsInt()), nil
		}
		return value.Num(a.AsNum() + b.AsNum()), nil
	case bytecode.OpSub:
		if bothInt {
			return value.Int(a.AsInt() - b.AsInt()), nil
		}
		return value.Num(a.AsNum() - b.AsNum()), nil
	case bytecode.OpMul:
		if bothInt {
			return value.Int(a.AsInt() * b.AsInt()), nil
		}
		return value.Num(a.AsNum() * b.AsNum()), nil
	case bytecode.OpDiv:
		if bothInt {
			if b.AsInt() == 0 {
				return value.Nil(), fmt.Errorf("integer division by zero")
			}
			return value.Int(a.AsInt() / b.AsInt()), nil
		}
		return value.Num(a.AsNum() / b.AsNum()), nil
	case bytecode.OpMod:
		if !bothInt {
			return value.Num(math.Mod(a.AsNum(), b.AsNum())), nil
		}
		if b.AsInt() == 0 {
			return value.Nil(), fmt.Errorf("integer modulo by zero")
		}
		return value.Int(a.AsInt() % b.AsInt()), nil
	default:
		return value.Nil(), fmt.Errorf("bad arithmetic opcode %v", op)
	}
}

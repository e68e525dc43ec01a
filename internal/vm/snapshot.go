package vm

import (
	"bytes"
	"fmt"

	"messengers/internal/bytecode"
	"messengers/internal/value"
	"messengers/internal/wire"
)

// AppendSnapshot serializes the full execution state — Messenger variables,
// call frames, and operand stack — into e in one pass. Together with the
// program hash this is exactly what a daemon ships when a Messenger hops to
// another daemon (the code itself stays in the shared script registry).
// Oversized values set the encoder's sticky error. Variables go first, in
// eachVar's order: the only one restore accepts.
func (m *VM) AppendSnapshot(e *wire.Encoder) {
	at, n := e.Reserve(4), 0
	m.eachVar(func(name string, v value.Value) {
		e.Str(name)
		v.AppendTo(e)
		n++
	})
	e.PatchU32(at, uint32(n))
	e.U32(uint32(len(m.frames)))
	for i := range m.frames {
		f := &m.frames[i]
		e.U32(uint32(f.fn))
		e.U32(uint32(f.pc))
		e.U32(uint32(len(f.locals)))
		for _, lv := range f.locals {
			lv.AppendTo(e)
		}
	}
	e.U32(uint32(len(m.stack)))
	for _, v := range m.stack {
		v.AppendTo(e)
	}
}

// Snapshot builds the snapshot as a standalone slice, preallocated to its
// exact encoded size (no regrows). An error means some value exceeded the
// wire layer's length limit and the snapshot is unusable; callers must
// treat the Messenger as unserializable rather than ship the truncated
// bytes. Hot paths encode through AppendSnapshot instead, straight into a
// pooled frame whose sticky error the frame writer checks.
func (m *VM) Snapshot() ([]byte, error) {
	e := wire.AppendingTo(make([]byte, 0, m.SnapshotSize()))
	m.AppendSnapshot(e)
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("vm: snapshot: %w", err)
	}
	return e.Bytes(), nil
}

// SnapshotSize returns the exact encoded size of AppendSnapshot's output
// without building it — the size half of the single-walk contract. The sim
// engine charges this as modeled wire cost without materializing bytes, so
// it must agree byte-for-byte with AppendSnapshot.
func (m *VM) SnapshotSize() int {
	n := 4 + 4
	m.eachVar(func(name string, v value.Value) { n += 4 + len(name) + v.WireSize() })
	for i := range m.frames {
		n += 12
		for _, lv := range m.frames[i].locals {
			n += lv.WireSize()
		}
	}
	n += 4
	for _, v := range m.stack {
		n += v.WireSize()
	}
	return n
}

// eachVar calls f for every Messenger variable in strictly increasing name
// order: the table's sorted slots that hold one, merged with the tail.
func (m *VM) eachVar(f func(name string, v value.Value)) {
	vt := m.prog.VarTable()
	tail := m.tail
	for _, s := range vt.Sorted {
		if !m.present[s] && m.vars[s].IsNil() {
			continue
		}
		name := vt.Names[s]
		for len(tail) > 0 && tail[0].name < name {
			f(tail[0].name, tail[0].v)
			tail = tail[1:]
		}
		f(name, m.vars[s])
	}
	for _, tv := range tail {
		f(tv.name, tv.v)
	}
}

// Restore rebuilds a VM from a snapshot against its program, which must be
// verified (every compiled or wire-decoded program is). The restored state
// is checked against the verifier's stack-depth metadata: each frame must
// resume at a reachable PC, interior frames must sit just past the call
// instruction that entered their callee, and the operand stack must have
// exactly the depth the verifier proved for that resume point. A snapshot
// taken at any hop therefore restores by construction, and anything else
// is rejected here instead of crashing the VM mid-run.
func Restore(prog *bytecode.Program, buf []byte) (*VM, error) {
	return RestoreInto(nil, prog, buf)
}

// Berth is a released VM: no Messenger state, only the storage one left
// behind. What migrates is a continuation and its environment; the machine
// that receives it is furniture, and a daemon that has just serialised a
// departing Messenger keeps its berth for the next arrival.
type Berth VM

// Release ends the VM's life as a Messenger and returns its storage as a
// Berth: the variable area (emptied), the frame slice, the arena slab and the
// threaded loop's scratch. Every Value is cleared here, not at reuse, so a
// parked berth pins nothing the Messenger carried. m must not be used
// afterwards.
func (m *VM) Release() *Berth {
	clear(m.vars)
	clear(m.present)
	clear(m.frames)
	m.arena.Reset()
	if m.tx != nil {
		*m.tx = texec{}
	}
	// Everything not named here starts over: locals and stack that spilled
	// to the heap, the tail (dropped, not cleared: clones may share it), the
	// profile and meter of the last daemon, the dispatch mode.
	*m = VM{prog: m.prog, vars: m.vars, present: m.present, frames: m.frames[:0], arena: m.arena, tx: m.tx}
	return (*Berth)(m)
}

// RestoreInto is Restore into the storage of berth, which it consumes: the
// result is the berth's VM, indistinguishable from a freshly restored one
// (same checks, same errors) but built without allocating when the snapshot
// fits what the last occupant used. Variable names the program mentions are
// its table's, never taken from buf, so nothing restored aliases the
// snapshot bytes. A nil berth, or one released by a VM of a
// different program (its slab was sized by another verifier proof), means a
// fresh VM. When the restore fails the berth is released again: reusable,
// never half-filled.
func RestoreInto(berth *Berth, prog *bytecode.Program, buf []byte) (*VM, error) {
	if !prog.Verified() {
		return nil, fmt.Errorf("vm: restore against unverified program %q", prog.Name)
	}
	m := (*VM)(berth)
	if m == nil || m.prog != prog {
		// A single-frame snapshot's locals and stack land in one slab of
		// the new arena; deeper ones spill to the heap transparently.
		m = newVM(prog)
	}
	if err := m.restore(buf); err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}

// restore fills a VM that holds no state from a snapshot, which it must
// consume to the last byte.
func (m *VM) restore(buf []byte) error {
	prog := m.prog
	d := wire.NewDecoder(buf)
	// A variable the program references lands in its slot, any other in the
	// tail. Names must strictly increase, so one merge with the table's
	// sorted order finds the slots. A variable is at least five bytes.
	vt := prog.VarTable()
	sorted := vt.Sorted
	var prev []byte
	for i, n := 0, d.Count(5); i < n && d.Err() == nil; i++ {
		name := d.Blob()
		if i > 0 && d.Err() == nil && bytes.Compare(prev, name) >= 0 {
			return fmt.Errorf("vm: snapshot variable %q does not follow %q in name order", name, prev)
		}
		prev = name
		for len(sorted) > 0 && vt.Names[sorted[0]] < string(name) {
			sorted = sorted[1:]
		}
		if v := value.DecodeFrom(&d); len(sorted) > 0 && vt.Names[sorted[0]] == string(name) {
			m.vars[sorted[0]], m.present[sorted[0]] = v, true
		} else {
			m.tail = append(m.tail, namedVar{string(name), v})
		}
	}
	// A frame is three words and its locals; a value is at least its tag.
	nframes := d.Count(12)
	if d.Err() == nil && (nframes < 1 || nframes > maxCallDepth) {
		return fmt.Errorf("vm: snapshot frame count %d out of range", nframes)
	}
	if cap(m.frames) < nframes {
		m.frames = make([]frame, 0, nframes)
	}
	for i := 0; i < nframes; i++ {
		fn, pc, nloc := int(d.U32()), int(d.U32()), d.Count(1)
		if d.Err() != nil {
			break
		}
		if fn >= len(prog.Funcs) {
			return fmt.Errorf("vm: snapshot references function %d of %d", fn, len(prog.Funcs))
		}
		if pc > len(prog.Funcs[fn].Code) {
			return fmt.Errorf("vm: snapshot pc %d beyond code of %q", pc, prog.Funcs[fn].Name)
		}
		if nloc != prog.Funcs[fn].NumLocals {
			return fmt.Errorf("vm: snapshot carries %d locals for %q declaring %d",
				nloc, prog.Funcs[fn].Name, prog.Funcs[fn].NumLocals)
		}
		fr := frame{fn: fn, pc: pc, locals: m.arena.Values(nloc)}
		for j := range fr.locals {
			fr.locals[j] = value.DecodeFrom(&d)
		}
		m.frames = append(m.frames, fr)
	}
	m.stack = m.arena.Values(d.Count(1))
	for i := 0; i < len(m.stack) && d.Err() == nil; i++ {
		m.stack[i] = value.DecodeFrom(&d)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("vm: restore: %w", err)
	}
	return m.checkResumeState()
}

// checkResumeState proves a restored VM consistent with the verifier's
// metadata: the operand stack depth must equal the sum of what each frame's
// resume PC contributes. The top frame contributes its full entry depth;
// an interior frame sits one instruction past the OpCallFunc that entered
// the next frame, and its pending return value has not been pushed yet, so
// it contributes one less than the depth recorded after the call.
//
// Beyond depths, every restored value is checked against the kind-flow
// proof for its resume point (stack slots and locals per frame, Messenger
// variables against the executing frame). A snapshot taken at any hop
// satisfies the proof by construction; a forged one that does not is
// rejected here, which is what lets kind-specialized handlers skip their
// dynamic guards (threaded.go) without trusting the network.
func (m *VM) checkResumeState() error {
	want := 0
	for i := range m.frames {
		f := &m.frames[i]
		fname := m.prog.Funcs[f.fn].Name
		code := m.prog.Funcs[f.fn].Code
		if f.pc >= len(code) {
			return fmt.Errorf("vm: snapshot resumes %q at pc %d past end of code", fname, f.pc)
		}
		d := m.prog.StackDepth(f.fn, f.pc)
		if d < 0 {
			return fmt.Errorf("vm: snapshot resumes %q at unreachable pc %d", fname, f.pc)
		}
		contrib := d
		if i < len(m.frames)-1 {
			call := f.pc - 1
			if call < 0 || code[call].Op != bytecode.OpCallFunc || int(code[call].A) != m.frames[i+1].fn {
				return fmt.Errorf("vm: snapshot frame %d of %q does not resume after a call into %q",
					i, fname, m.prog.Funcs[m.frames[i+1].fn].Name)
			}
			contrib = d - 1
		}
		if want+contrib > len(m.stack) {
			return fmt.Errorf("vm: snapshot stack depth %d inconsistent with resume point (verifier proved at least %d)",
				len(m.stack), want+contrib)
		}
		for j := 0; j < contrib; j++ {
			if k := m.prog.SlotKind(f.fn, f.pc, j); !k.Matches(m.stack[want+j].Kind()) {
				return fmt.Errorf("vm: snapshot stack slot %d of %q@%d is %v where the verifier proved %v",
					j, fname, f.pc, m.stack[want+j].Kind(), k)
			}
		}
		for j := range f.locals {
			if k := m.prog.LocalKind(f.fn, f.pc, j); !k.Matches(f.locals[j].Kind()) {
				return fmt.Errorf("vm: snapshot local %d of %q@%d is %v where the verifier proved %v",
					j, fname, f.pc, f.locals[j].Kind(), k)
			}
		}
		want += contrib
	}
	if len(m.stack) != want {
		return fmt.Errorf("vm: snapshot stack depth %d inconsistent with resume point (verifier proved %d)",
			len(m.stack), want)
	}
	top := m.top()
	for s, name := range m.prog.VarTable().Names {
		if k := m.prog.VarKind(top.fn, top.pc, s); !k.Matches(m.vars[s].Kind()) {
			return fmt.Errorf("vm: snapshot variable %q is %v where the verifier proved %v at %q@%d",
				name, m.vars[s].Kind(), k, m.prog.Funcs[top.fn].Name, top.pc)
		}
	}
	return nil
}

package vm

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/value"
)

// pausedAtHop runs a fresh VM of prog to its first hop.
func pausedAtHop(t testing.TB, prog *bytecode.Program, vars map[string]value.Value) *VM {
	t.Helper()
	m := New(prog, vars)
	res, err := m.Run(newTestHost(), 0)
	if err != nil || res.Pause != PauseHop {
		t.Fatalf("run to hop: pause %v, err %v", res.Pause, err)
	}
	return m
}

func mustSnapshot(t testing.TB, m *VM) []byte {
	t.Helper()
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// usedBerth is a berth whose last occupant ran the deep program to its hop:
// seven frames, a live operand stack, an array and a matrix aboard, the
// threaded loop's scratch filled.
func usedBerth(t testing.TB) (*Berth, *bytecode.Program) {
	t.Helper()
	m, _ := pausedDeepVM(t)
	return m.Release(), m.Program()
}

// TestReleasedBerthHoldsNoValue: a berth is cleared when it is released, not
// when it is reused, so one parked on a daemon's free list pins nothing its
// Messenger carried. The 512 KB matrix aboard must become collectable while
// the berth itself stays referenced, and no storage the berth keeps may still
// hold a Value.
func TestReleasedBerthHoldsNoValue(t *testing.T) {
	prog := compile.MustCompile("carrier", `
		func f(a) { held = a; hop(ll = "x"); return held; }
		r = f(blk);
	`)
	blk := value.NewMat(256, 256)
	collected := make(chan struct{})
	runtime.SetFinalizer(blk, func(*value.Mat) { close(collected) })
	m := pausedAtHop(t, prog, map[string]value.Value{"blk": value.Matrix(blk), "tag": value.Str("aboard")})
	blk = nil
	berth := m.Release()

	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the matrix the Messenger carried is still reachable through its released berth")
		case <-time.After(10 * time.Millisecond):
		}
	}

	b := (*VM)(berth)
	if len(b.frames) != 0 || b.stack != nil || b.stackBuf != nil || b.tail != nil || slices.Contains(b.present, true) {
		t.Errorf("berth keeps state: %d frames, stack %v, stackBuf %v, tail %v, present %v", len(b.frames), b.stack, b.stackBuf, b.tail, b.present)
	}
	if b.prof != nil || b.meter != nil || b.dispatch != DispatchAuto {
		t.Error("berth keeps its last daemon's profile, meter or dispatch mode")
	}
	zero := func(what string, vs []value.Value) {
		for i := range vs {
			if vs[i] != (value.Value{}) {
				t.Errorf("%s[%d] still holds %v", what, i, vs[i])
			}
		}
	}
	zero("vars", b.vars)
	for i := range b.frames[:cap(b.frames)] {
		if b.frames[:cap(b.frames)][i].locals != nil {
			t.Errorf("frame %d of the berth's frame storage still points at locals", i)
		}
	}
	if b.tx != nil && !reflect.DeepEqual(*b.tx, texec{}) {
		t.Error("the threaded loop's scratch still holds its last segment")
	}
	if arenaUsed(b.arena) != 0 {
		t.Errorf("arena not reset: %d values in use", arenaUsed(b.arena))
	}
	zero("arena slab", b.arena.Values(int(b.arena.Bytes()/int64(unsafe.Sizeof(value.Value{})))))
	runtime.KeepAlive(berth)
}

// TestBerthExposesNothingOfItsLastOccupant: a snapshot with fewer variables,
// restored into a berth that held more, is exactly that snapshot.
func TestBerthExposesNothingOfItsLastOccupant(t *testing.T) {
	prog := compile.MustCompile("vars", `
		hop(ll = "x");
		seen = a + b;
	`)
	rich := pausedAtHop(t, prog, map[string]value.Value{
		"a": value.Int(1), "b": value.Int(2), "c": value.Str("left behind"), "d": value.Arr([]value.Value{value.Int(9)}),
	})
	lean := mustSnapshot(t, pausedAtHop(t, prog, map[string]value.Value{"a": value.Int(40)}))

	m, err := RestoreInto(rich.Release(), prog, lean)
	if err != nil {
		t.Fatal(err)
	}
	if m != rich {
		t.Fatal("RestoreInto did not reuse the berth it was given")
	}
	if got := mustSnapshot(t, m); !bytes.Equal(got, lean) {
		t.Errorf("restored into a used berth, the VM snapshots to %x, want %x", got, lean)
	}
	for _, name := range []string{"b", "c", "d"} {
		if !m.Vars()[name].IsNil() {
			t.Errorf("variable %q of the last occupant is visible: %v", name, m.Vars()[name])
		}
	}
	if res, err := m.Run(newTestHost(), 0); err != nil || res.Pause != PauseEnd {
		t.Fatalf("resume: pause %v, err %v", res.Pause, err)
	}
	if got := m.Vars()["seen"].AsInt(); got != 40 {
		t.Errorf("seen = %d, want 40 (b is unset, not 2)", got)
	}
}

// TestBerthOfAnotherProgramIsNotReused: a berth's slab was sized by its own
// program's verifier proof, so RestoreInto builds a fresh VM for any other
// program and leaves the berth as it was.
func TestBerthOfAnotherProgramIsNotReused(t *testing.T) {
	berth, deep := usedBerth(t)
	other := compile.MustCompile("other", `hop(ll = "x"); y = 1;`)
	snap := mustSnapshot(t, pausedAtHop(t, other, nil))
	m, err := RestoreInto(berth, other, snap)
	if err != nil {
		t.Fatal(err)
	}
	if m == (*VM)(berth) {
		t.Fatal("a berth released by another program's VM was reused")
	}
	if m.Program() != other || (*VM)(berth).prog != deep {
		t.Error("programs crossed")
	}
	// The same program, re-decoded, is a different proof object too.
	again, err := bytecode.Decode(deep.Encode())
	if err != nil {
		t.Fatal(err)
	}
	_, deepSnap := pausedDeepVM(t)
	if m, err := RestoreInto(berth, again, deepSnap); err != nil || m == (*VM)(berth) {
		t.Errorf("re-decoded program: reused=%v err=%v", m == (*VM)(berth), err)
	}
}

// forgedCase is one snapshot Restore must refuse for prog.
type forgedCase struct {
	name string
	prog *bytecode.Program
	snap []byte
}

// kindForgeries doctors a paused VM: for every local, stack slot and
// Messenger variable the kind-flow proof narrows to one kind at the resume
// point, it yields the snapshot of the same state with a value of another
// kind there. counts tallies what it found by place.
func kindForgeries(t *testing.T, m *VM, counts map[string]int) []forgedCase {
	t.Helper()
	prog := m.Program()
	var out []forgedCase
	// get and set reach the place: a slice element.
	forge := func(place string, k bytecode.AbsKind, get func() value.Value, set func(value.Value)) {
		if !k.Exact() {
			return
		}
		keep := get()
		set(value.Str("forged"))
		if k.Matches(value.KindStr) {
			set(value.Int(1))
		}
		out = append(out, forgedCase{"forged " + place + " of " + prog.Name, prog, mustSnapshot(t, m)})
		set(keep)
		counts[place]++
	}
	at := func(slot *value.Value) (func() value.Value, func(value.Value)) {
		return func() value.Value { return *slot }, func(v value.Value) { *slot = v }
	}
	base := 0
	for i := range m.frames {
		f := &m.frames[i]
		for j := range f.locals {
			get, set := at(&f.locals[j])
			forge("local", prog.LocalKind(f.fn, f.pc, j), get, set)
		}
		depth := prog.StackDepth(f.fn, f.pc)
		if i < len(m.frames)-1 {
			depth-- // the callee's return value is not pushed yet
		}
		for j := 0; j < depth; j++ {
			get, set := at(&m.stack[base+j])
			forge("stack slot", prog.SlotKind(f.fn, f.pc, j), get, set)
		}
		base += depth
	}
	top := m.top()
	for s := range m.vars {
		get, set := at(&m.vars[s])
		forge("variable", prog.VarKind(top.fn, top.pc, s), get, set)
	}
	return out
}

// forgedSnapshots returns snapshots Restore must refuse: the truncations and
// count forgeries of TestRestoreRejectsGarbage, FuzzSnapshotRestore's
// degenerate seeds, and kind forgeries against three programs' proofs.
func forgedSnapshots(t *testing.T) []forgedCase {
	t.Helper()
	m, snap := pausedDeepVM(t)
	prog := m.Program()
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), snap...)
		mut(b)
		return b
	}
	varsLen := varsWireSize(m)
	cases := []forgedCase{
		{"empty", prog, []byte{}},
		{"vars only", prog, []byte{0, 0, 0, 0}},
		{"frame header cut", prog, []byte{0, 0, 0, 0, 1, 0, 0, 0}},
		{"zero frames", prog, corrupt(func(b []byte) { copy(b[varsLen:], []byte{0, 0, 0, 0}) })},
		{"absurd frames", prog, corrupt(func(b []byte) { copy(b[varsLen:], []byte{255, 255, 255, 255}) })},
		{"truncated mid-env", prog, snap[:varsLen/2]},
		{"truncated tail", prog, snap[:len(snap)-3]},
		{"junk prefix", prog, append([]byte{9, 9, 9, 9, 9}, snap...)},
		{"absurd env count", prog, corrupt(func(b []byte) { copy(b, []byte{255, 255, 255, 127}) })},
	}
	counts := map[string]int{}
	cases = append(cases, kindForgeries(t, m, counts)...)
	typed := compile.MustCompile("typed", `
		func f(a) { t = 5; u = "five"; hop(ll = "x"); return t + a; }
		i = 1;
		x = 2.5;
		r = f(2);
	`)
	cases = append(cases, kindForgeries(t, pausedAtHop(t, typed, nil), counts)...)
	flat := compile.MustCompile("flat", `
		i = 1;
		x = 2.5;
		hop(ll = "x");
		j = i + 1;
	`)
	cases = append(cases, kindForgeries(t, pausedAtHop(t, flat, nil), counts)...)
	for _, place := range []string{"local", "stack slot", "variable"} {
		if counts[place] == 0 {
			t.Errorf("no kind proof narrows any %s in the test programs: that forgery is not exercised", place)
		}
	}
	return cases
}

// TestForgedSnapshotsRejectedThroughUsedBerth: every check Restore makes, it
// makes through a used berth too, with the same error; and a refused restore
// leaves the berth clean, so the same one serves every case and then a good
// snapshot.
func TestForgedSnapshotsRejectedThroughUsedBerth(t *testing.T) {
	cases := forgedSnapshots(t)
	berths := map[*bytecode.Program]*Berth{}
	for _, c := range cases {
		if berths[c.prog] == nil {
			m := New(c.prog, map[string]value.Value{"last": value.Str("occupant")})
			if _, err := m.Run(newTestHost(), 0); err != nil {
				t.Fatal(err)
			}
			berths[c.prog] = m.Release()
		}
		berth := berths[c.prog]
		_, fresh := Restore(c.prog, c.snap)
		if fresh == nil {
			t.Errorf("%s: Restore accepted a forged snapshot", c.name)
			continue
		}
		m, err := RestoreInto(berth, c.prog, c.snap)
		if err == nil || m != nil {
			t.Errorf("%s: RestoreInto a used berth accepted what Restore refuses with %v", c.name, fresh)
			continue
		}
		if err.Error() != fresh.Error() {
			t.Errorf("%s: through a berth the refusal reads %q, fresh %q", c.name, err, fresh)
		}
		b := (*VM)(berth)
		if slices.Contains(b.present, true) || b.tail != nil || len(b.frames) != 0 || b.stack != nil || arenaUsed(b.arena) != 0 {
			t.Fatalf("%s: the refused restore left the berth half-filled (present %v, tail %v, %d frames, %d arena values)",
				c.name, b.present, b.tail, len(b.frames), arenaUsed(b.arena))
		}
	}
	deep, good := pausedDeepVM(t)
	m, err := RestoreInto(berths[cases[0].prog], cases[0].prog, good)
	if err != nil {
		t.Fatalf("after %d refusals the berth no longer takes a good snapshot: %v", len(cases), err)
	}
	if m.Program() != deep.Program() && m.Program().Hash() != deep.Program().Hash() {
		t.Fatal("test set-up: the good snapshot is of another program")
	}
	if res, err := m.Run(newTestHost(), 0); err != nil || res.Pause != PauseEnd || m.Vars()["total"].AsInt() != 109 {
		t.Errorf("resumed in the berth: pause %v, err %v, total %v", res.Pause, err, m.Vars()["total"])
	}
}

// TestRestoreIntoAllocatesNothing pins what the berth is for: a scalar hop
// snapshot restored into the berth its program's last Messenger left, and
// run to its next hop, allocates only what the segment itself does.
func TestRestoreIntoAllocatesNothing(t *testing.T) {
	prog := compile.MustCompile("walker", `
		for (k = 0; k < hops; k++) {
			node.visits = node.visits + 1;
			hop(ll = "ring", ldir = +);
		}
	`)
	m := pausedAtHop(t, prog, map[string]value.Value{"hops": value.Int(1 << 40)})
	snap := mustSnapshot(t, m)
	h := newTestHost()
	// One lap outside the measurement builds the threaded loop's scratch.
	m, err := RestoreInto(m.Release(), prog, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(h, 0); err != nil {
		t.Fatal(err)
	}
	restore := testing.AllocsPerRun(100, func() {
		m, err = RestoreInto(m.Release(), prog, snap)
		if err != nil {
			t.Fatal(err)
		}
	})
	if restore != 0 {
		t.Errorf("RestoreInto a used berth: %v allocs, want 0", restore)
	}
	fresh := testing.AllocsPerRun(100, func() {
		if _, err := Restore(prog, snap); err != nil {
			t.Fatal(err)
		}
	})
	if fresh < 5 {
		t.Errorf("Restore: %v allocs; the comparison above proves little", fresh)
	}
}

// arenaUsed reads how many Values an arena has served since its last
// Reset.
func arenaUsed(a *value.Arena) int64 {
	return reflect.ValueOf(a).Elem().FieldByName("used").Int()
}

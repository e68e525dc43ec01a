package vm

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"messengers/internal/compile"
	"messengers/internal/value"
	"messengers/internal/wire"
)

// deepProg pauses on a hop at the bottom of a recursion, so the snapshot
// carries nested call frames with live locals AND a non-empty operand stack
// (the partial sums of every enclosing `1 + rec(...)` expression).
const deepSource = `
	func rec(n) {
		if (n < 1) {
			hop(ll = "deep");
			return 100;
		}
		return 1 + rec(n - 1);
	}
	total = 3 + rec(6);
`

func pausedDeepVM(t testing.TB) (*VM, []byte) {
	t.Helper()
	prog, err := compile.Compile("deep", deepSource)
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog, map[string]value.Value{"payload": value.Arr([]value.Value{
		value.Int(7), value.Str("mid-hop"), value.Matrix(value.NewMat(3, 2)),
	})})
	res, err := m.Run(newTestHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pause != PauseHop {
		t.Fatalf("pause = %v, want hop", res.Pause)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m, snap
}

func TestSnapshotRestoreAtDepth(t *testing.T) {
	m, snap := pausedDeepVM(t)
	if len(m.frames) < 7 {
		t.Fatalf("expected deep recursion in snapshot, got %d frames", len(m.frames))
	}
	if len(m.stack) == 0 {
		t.Fatal("expected a non-empty operand stack mid-expression")
	}
	if got := m.SnapshotSize(); got != len(snap) {
		t.Errorf("SnapshotSize = %d, snapshot = %d bytes", got, len(snap))
	}
	// The pooled-encoder path must produce the same bytes as Snapshot.
	e := wire.NewEncoder()
	defer e.Release()
	m.AppendSnapshot(e)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	if !bytes.Equal(e.Bytes(), snap) {
		t.Fatal("AppendSnapshot bytes differ from Snapshot")
	}
	m2, err := Restore(m.Program(), snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m2.Run(newTestHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pause != PauseEnd {
		t.Fatalf("restored run pause = %v", res.Pause)
	}
	// total = 3 + (6 ones + 100) — only correct if every frame's locals and
	// every pending operand survived the round trip.
	if got := m2.Vars()["total"].AsInt(); got != 109 {
		t.Errorf("total = %d, want 109", got)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	m, snap := pausedDeepVM(t)
	prog := m.Program()
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), snap...)
		mut(b)
		return b
	}
	// The frame count sits right after the encoded vars.
	varsLen := varsWireSize(m)
	cases := map[string][]byte{
		"zero frames":       corrupt(func(b []byte) { copy(b[varsLen:], []byte{0, 0, 0, 0}) }),
		"absurd frames":     corrupt(func(b []byte) { copy(b[varsLen:], []byte{255, 255, 255, 255}) }),
		"truncated mid-env": snap[:varsLen/2],
		"truncated tail":    snap[:len(snap)-3],
		"junk prefix":       append([]byte{9, 9, 9, 9, 9}, snap...),
	}
	for name, b := range cases {
		if _, err := Restore(prog, b); err == nil {
			t.Errorf("%s: Restore should fail", name)
		}
	}
}

// FuzzSnapshotRestore feeds arbitrary bytes to Restore; whatever it
// accepts must re-snapshot to exactly its input (docs/WIRE.md: one state,
// one encoding), and it must never panic. The same bytes go through a used
// berth, one for the whole run, which must accept and refuse exactly what a
// fresh Restore does, with the same error.
func FuzzSnapshotRestore(f *testing.F) {
	m, snap := pausedDeepVM(f)
	prog := m.Program()
	f.Add(snap)
	// A matrix whose float block starts at an odd offset of the snapshot:
	// Restore moves it with one bulk copy, which must not care about
	// alignment (and under -race, checkptr watches the cast that does it).
	mat := value.NewMat(2, 3)
	for i := range mat.Data {
		mat.Data[i] = 1.5 + float64(i)
	}
	odd := New(prog, map[string]value.Value{"mm": value.Matrix(mat)})
	if res, err := odd.Run(newTestHost(), 0); err != nil || res.Pause != PauseHop {
		f.Fatalf("odd-offset seed: pause %v, err %v", res.Pause, err)
	}
	oddSnap, err := odd.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if at := bytes.Index(oddSnap, wire.AppendF64s(nil, mat.Data)); at < 0 || at%2 == 0 {
		f.Fatalf("seed matrix block at offset %d, want an odd one", at)
	}
	f.Add(oddSnap)
	// A variable nested exactly value.MaxDepth arrays deep, and the same
	// snapshot with one array more around it: the fuzzer starts on both
	// sides of the nesting guard.
	nested := value.Nil()
	for i := 0; i < value.MaxDepth; i++ {
		nested = value.Arr([]value.Value{nested})
	}
	deep := New(prog, map[string]value.Value{"nest": nested})
	if res, err := deep.Run(newTestHost(), 0); err != nil || res.Pause != PauseHop {
		f.Fatalf("nested seed: pause %v, err %v", res.Pause, err)
	}
	deepSnap, err := deep.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	inner, _ := value.Append(nil, nested)
	at := bytes.Index(deepSnap, inner)
	f.Add(deepSnap)
	f.Add(bytes.Join([][]byte{deepSnap[:at], {byte(value.KindArr), 1, 0, 0, 0}, deepSnap[at:]}, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})
	berth := m.Release()
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := Restore(prog, data)
		mb, berr := RestoreInto(berth, prog, data)
		if (err == nil) != (berr == nil) || (err != nil && err.Error() != berr.Error()) {
			t.Fatalf("fresh Restore says %v, through a used berth %v", err, berr)
		}
		if err != nil {
			return
		}
		again, err := m1.Snapshot()
		if err != nil {
			t.Fatalf("re-snapshot of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
		if viaBerth, err := mb.Snapshot(); err != nil || !bytes.Equal(viaBerth, again) {
			t.Fatalf("restored into a used berth the VM snapshots differently (err %v)", err)
		}
		berth = mb.Release()
	})
}

// varsWireSize is the encoded size of m's variables: where a snapshot's
// frame count starts.
func varsWireSize(m *VM) int {
	n := 4
	m.eachVar(func(name string, v value.Value) { n += 4 + len(name) + v.WireSize() })
	return n
}

// mixedVM is a VM of a program that references b and d, carrying
// injected a, c and e it never references, nil among them, so its
// snapshot interleaves slots and tail.
func mixedVM(t *testing.T) *VM {
	t.Helper()
	prog := compile.MustCompile("mixed", `d = b + 1; hop(ll = "x");`)
	return pausedAtHop(t, prog, map[string]value.Value{
		"a": value.Str("first"), "b": value.Int(1), "c": value.Nil(), "e": value.Arr([]value.Value{value.Int(5)}),
	})
}

// TestEnvRoundTrip: a snapshot's variables — slots and tail, nil, the
// empty name, a matrix — come back as they went, in the byte count
// SnapshotSize promised, and an oversized one is an error, not a truncated
// snapshot.
func TestEnvRoundTrip(t *testing.T) {
	prog := compile.MustCompile("env", `x = x + 1; hop(ll = "x");`)
	vars := map[string]value.Value{
		"x":     value.Int(1),
		"name":  value.Str("worker"),
		"block": value.Matrix(&value.Mat{Rows: 1, Cols: 2, Data: []float64{math.Pi, -1}}),
		"":      value.Nil(),
	}
	m := pausedAtHop(t, prog, value.CloneEnv(vars))
	snap := mustSnapshot(t, m)
	if m.SnapshotSize() != len(snap) {
		t.Errorf("SnapshotSize = %d, encoded = %d", m.SnapshotSize(), len(snap))
	}
	r, err := Restore(prog, snap)
	if err != nil {
		t.Fatal(err)
	}
	vars["x"] = value.Int(2)
	if got := r.Vars(); !maps.EqualFunc(got, vars, value.Value.Equal) {
		t.Errorf("restored variables %v, want %v", got, vars)
	}
	huge := New(prog, map[string]value.Value{"m": value.Matrix(&value.Mat{Rows: wire.MaxLen + 1, Cols: 1})})
	if _, err := huge.Snapshot(); err == nil {
		t.Error("Snapshot accepted an oversized variable")
	}
}

// TestEnvEncodingIsDeterministic: the variables leave in name order
// whatever order the injector's map iterates in, slots and tail merged.
func TestEnvEncodingIsDeterministic(t *testing.T) {
	first := mustSnapshot(t, mixedVM(t))
	for i := 0; i < 10; i++ {
		if got := mustSnapshot(t, mixedVM(t)); !bytes.Equal(got, first) {
			t.Fatal("the snapshot depends on the order New saw the variables in")
		}
	}
	d := wire.NewDecoder(first)
	var names []string
	for i, n := 0, int(d.U32()); i < n; i++ {
		names = append(names, d.Str())
		value.DecodeFrom(&d)
	}
	if want := []string{"a", "b", "c", "d", "e"}; !slices.Equal(names, want) {
		t.Errorf("variables leave as %v, want %v", names, want)
	}
}

// TestEnvDecodeErrors: a variable cut short anywhere is refused.
func TestEnvDecodeErrors(t *testing.T) {
	prog := compile.MustCompile("env", `hop(ll = "x");`)
	cases := [][]byte{
		nil,
		{1, 0, 0, 0},                  // missing key
		{1, 0, 0, 0, 3, 0, 0, 0},      // truncated key
		{1, 0, 0, 0, 1, 0, 0, 0, 'k'}, // missing value
	}
	for i, c := range cases {
		if _, err := Restore(prog, c); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestRestoreRefusesNamesOutOfOrder: restore takes the variables only in
// the one order AppendSnapshot writes, strictly increasing names, so a
// duplicate cannot decode with the last value winning and re-encode to
// other bytes, and no state has two encodings.
func TestRestoreRefusesNamesOutOfOrder(t *testing.T) {
	m := mixedVM(t)
	snap := mustSnapshot(t, m)
	if _, err := Restore(m.Program(), snap); err != nil {
		t.Fatalf("the VM's own snapshot: %v", err)
	}
	rest := snap[varsWireSize(m):]
	entry := func(name string, v value.Value) []byte {
		e := wire.AppendingTo(nil)
		e.Str(name)
		v.AppendTo(e)
		return e.Bytes()
	}
	vars := func(entries ...[]byte) []byte {
		return slices.Concat(binary.LittleEndian.AppendUint32(nil, uint32(len(entries))), slices.Concat(entries...), rest)
	}
	one, two := value.Int(1), value.Int(2)
	for name, buf := range map[string][]byte{
		"duplicate slot":         vars(entry("b", one), entry("b", two)),
		"duplicate tail":         vars(entry("a", one), entry("a", two)),
		"tail before its slot":   vars(entry("c", one), entry("b", two)),
		"slot before a tail":     vars(entry("d", one), entry("a", two)),
		"the empty name twice":   vars(entry("", one), entry("", two)),
		"a prefix after its own": vars(entry("bb", one), entry("b", two)),
	} {
		if _, err := Restore(m.Program(), buf); err == nil || !strings.Contains(err.Error(), "name order") {
			t.Errorf("%s: err = %v, want the order refused", name, err)
		}
	}
	if _, err := Restore(m.Program(), vars(entry("", one), entry("b", two), entry("bb", one))); err != nil {
		t.Errorf("names in strictly increasing order: %v", err)
	}
}

// TestAppendSnapshotAllocatesNothing: encoding a paused scalar walker, and
// sizing it, allocate nothing — no key slice, no sort. Its restore half,
// into the berth of the same program, is TestRestoreIntoAllocatesNothing.
func TestAppendSnapshotAllocatesNothing(t *testing.T) {
	prog := compile.MustCompile("walker", `
		for (k = 0; k < hops; k++) {
			node.visits = node.visits + 1;
			hop(ll = "ring", ldir = +);
		}
	`)
	m := pausedAtHop(t, prog, map[string]value.Value{"hops": value.Int(1 << 40)})
	if size := testing.AllocsPerRun(100, func() { m.SnapshotSize() }); size != 0 {
		t.Errorf("SnapshotSize: %v allocs, want 0", size)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled encoders at random under the race detector")
	}
	appendSnap := testing.AllocsPerRun(100, func() {
		e := wire.NewEncoder()
		m.AppendSnapshot(e)
		e.Release()
	})
	if appendSnap != 0 {
		t.Errorf("AppendSnapshot: %v allocs, want 0", appendSnap)
	}
}

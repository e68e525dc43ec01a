package vm

import (
	"bytes"
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
	if got := m2.Var("total").AsInt(); got != 109 {
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
	varsLen := value.EnvWireSize(m.vars)
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
// accepts must re-snapshot deterministically and restore again (decode →
// encode → decode is a fixed point), and must never panic. The same bytes
// go through a used berth, one for the whole run, which must accept and
// refuse exactly what a fresh Restore does, with the same error.
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
		if viaBerth, err := mb.Snapshot(); err != nil || !bytes.Equal(viaBerth, again) {
			t.Fatalf("restored into a used berth the VM snapshots differently (err %v)", err)
		}
		berth = mb.Release()
		m2, err := Restore(prog, again)
		if err != nil {
			t.Fatalf("re-restore of accepted snapshot failed: %v", err)
		}
		snap2, err := m2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, snap2) {
			t.Fatal("snapshot of restored VM is not stable")
		}
	})
}

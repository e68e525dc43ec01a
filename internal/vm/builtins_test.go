package vm

import (
	"slices"
	"testing"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/value"
)

// TestBuiltinsMatchKnownNatives pins the two native tables to each other,
// entry by entry. The kind-flow verifier models exactly
// bytecode.KnownNatives(); a builtin the verifier does not know would be
// honestly ⊤ (fine but slow), while a known native the VM does not
// implement would be a modeled signature with no implementation behind it
// — a proof about nothing. Lowering resolves a builtin to its index in
// that list, so the VM's table must also be in the same order, and the
// list sorted for bytecode.NativeIndex's search. Any drift fails.
func TestBuiltinsMatchKnownNatives(t *testing.T) {
	known := bytecode.KnownNatives()
	impl := make([]string, len(builtins))
	for i, b := range builtins {
		impl[i] = b.name
	}
	if !slices.Equal(known, impl) || !slices.IsSorted(known) {
		t.Fatalf("native tables diverge (KnownNatives must be sorted and match the VM's table in order):\n known=%v\n impl=%v",
			known, impl)
	}
	for i, name := range known {
		if got := bytecode.NativeIndex(name); got != int32(i) {
			t.Errorf("NativeIndex(%q) = %d, want %d", name, got, i)
		}
	}
	if got := bytecode.NativeIndex("spin"); got != -1 {
		t.Errorf("NativeIndex of a non-builtin = %d, want -1", got)
	}
}

// TestNativeResultKindSoundness cross-checks the modeled result kinds
// against the live implementations: for every known native, call the
// builtin with arguments of proven kinds and require the actual result's
// kind to be within the modeled result kind. A mismatch here means a
// specialized handler could be proven against a kind the builtin never
// produces.
func TestNativeResultKindSoundness(t *testing.T) {
	calls := map[string][]value.Value{
		"len":    {value.Str("ab")},
		"print":  {value.Int(1)},
		"str":    {value.Num(1.5)},
		"int":    {value.Str("7")},
		"num":    {value.Int(2)},
		"abs":    {value.Int(-3)},
		"min":    {value.Int(1), value.Int(2)},
		"max":    {value.Num(1.5), value.Num(2.5)},
		"floor":  {value.Num(1.9)},
		"ceil":   {value.Num(1.1)},
		"sqrt":   {value.Int(4)},
		"pow":    {value.Int(2), value.Int(3)},
		"array":  {value.Int(3)},
		"bytes":  {value.Int(3)},
		"copy":   {value.Arr([]value.Value{value.Int(1)})},
		"substr": {value.Str("abcd"), value.Int(1), value.Int(2)},
		"matrix": {value.Int(2), value.Int(2)},
		"rows":   {value.Matrix(value.NewMat(2, 2))},
		"cols":   {value.Matrix(value.NewMat(2, 2))},
		"matget": {value.Matrix(value.NewMat(2, 2)), value.Int(0), value.Int(0)},
		"matset": {value.Matrix(value.NewMat(2, 2)), value.Int(0), value.Int(0), value.Num(3.0)},
	}
	prog, err := compile.Compile("natives", `x = 1;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bytecode.KnownNatives() {
		args, covered := calls[name]
		if !covered {
			t.Errorf("no concrete call for known native %q — extend this table", name)
			continue
		}
		kinds := make([]bytecode.AbsKind, len(args))
		for i, a := range args {
			kinds[i] = bytecode.KindOf(a.Kind())
		}
		modeled, known := bytecode.NativeResultKind(name, kinds)
		if !known {
			t.Errorf("NativeResultKind(%q, %v) unexpectedly unknown", name, kinds)
			continue
		}
		m := New(prog, nil)
		got, err := builtins[bytecode.NativeIndex(name)].fn(m, newTestHost(), args)
		if err != nil {
			t.Errorf("builtin %q(%v) failed on modeled-kind inputs: %v", name, args, err)
			continue
		}
		if !modeled.Matches(got.Kind()) {
			t.Errorf("builtin %q returned kind %v but the verifier modeled %v",
				name, got.Kind(), modeled)
		}
	}
}

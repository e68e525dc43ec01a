package bytecode

import (
	"reflect"
	"testing"
	"unsafe"

	"messengers/internal/value"
)

// TestDInstrFitsACacheLine pins the direct instruction, which embeds a
// constant value.Value, to one 64-byte line.
func TestDInstrFitsACacheLine(t *testing.T) {
	if got := unsafe.Sizeof(DInstr{}); got > 64 {
		t.Errorf("unsafe.Sizeof(DInstr{}) = %d, want <= 64", got)
	}
}

// loopProgram is a canonical counting loop: i = 0; while (i < 10) { i = i + 1 }
// Its loop head and increment are exactly the two quad idioms the lowering
// pass targets (slot-compare-branch and slot-arith-store); with quads
// disabled by jump targets it falls back to the pair families.
func loopProgram(t *testing.T) *Program {
	t.Helper()
	p := &Program{
		Name:   "loop",
		Consts: []value.Value{value.Int(0), value.Int(10), value.Int(1)},
		Names:  []string{"i"},
		Funcs: []FuncInfo{{Name: "<main>", Code: []Instr{
			{Op: OpConst, A: 0},  // 0: const 0
			{Op: OpStoreM, A: 0}, // 1: storem i
			{Op: OpLoadM, A: 0},  // 2: loadm i      <- loop head (jump target)
			{Op: OpConst, A: 1},  // 3: const 10
			{Op: OpLt},           // 4: lt
			{Op: OpJz, A: 11},    // 5: jz 11
			{Op: OpLoadM, A: 0},  // 6: loadm i
			{Op: OpConst, A: 2},  // 7: const 1
			{Op: OpAdd},          // 8: add
			{Op: OpStoreM, A: 0}, // 9: storem i
			{Op: OpJmp, A: 2},    // 10: jmp 2
			{Op: OpEnd},          // 11: end
		}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

func TestLoweredNilForUnverified(t *testing.T) {
	p := loopProgram(t)
	p.Funcs[0].Code[0].A = 99 // corrupt
	if err := p.Validate(); err == nil {
		t.Fatal("corrupt program verified")
	}
	if p.Lowered(LowerFused) != nil || p.Lowered(LowerPlain) != nil {
		t.Fatal("Lowered must be nil for unverified programs")
	}
}

func TestLoweredPlainIsOneToOne(t *testing.T) {
	p := loopProgram(t)
	low := p.Lowered(LowerPlain)
	if low == nil {
		t.Fatal("nil Lowered for verified program")
	}
	code := low.Funcs[0].Code
	src := p.Funcs[0].Code
	if len(code) != len(src) {
		t.Fatalf("plain lowering changed length: %d vs %d", len(code), len(src))
	}
	if low.Fused != 0 {
		t.Fatalf("plain lowering fused %d instructions", low.Fused)
	}
	for i, d := range code {
		if d.N != 1 || int(d.Src) != i {
			t.Errorf("instr %d: N=%d Src=%d", i, d.N, d.Src)
		}
		ops, n := d.Op.Constituents()
		if n != 1 || ops[0] != src[i].Op {
			t.Errorf("instr %d: constituents (%v,%d) want (%v,1)", i, ops[0], n, src[i].Op)
		}
	}
	// Jump targets resolve to themselves under 1:1 lowering.
	if code[5].Op != DJz || code[5].A != 11 {
		t.Errorf("jz lowered to %v A=%d", code[5].Op, code[5].A)
	}
	if code[10].Op != DJmp || code[10].A != 2 {
		t.Errorf("jmp lowered to %v A=%d", code[10].Op, code[10].A)
	}
}

// TestLoweredCallNativeCarriesBuiltinIndex: a builtin's name is resolved
// once, at lowering, to its KnownNatives index; any other name keeps -1 and
// is looked up by the daemon when the call pauses.
func TestLoweredCallNativeCarriesBuiltinIndex(t *testing.T) {
	p := &Program{
		Name:   "calls",
		Consts: []value.Value{value.Num(4)},
		Names:  []string{"sqrt", "spin"},
		Funcs: []FuncInfo{{Name: "<main>", Code: []Instr{
			{Op: OpConst, A: 0},
			{Op: OpCallNative, A: 0, B: 1},
			{Op: OpCallNative, A: 1, B: 1},
			{Op: OpPop},
			{Op: OpEnd},
		}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	code := p.Lowered(LowerPlain).Funcs[0].Code
	if d := code[1]; d.Op != DCallNative || d.A != NativeIndex("sqrt") || d.A < 0 || d.Name != "sqrt" {
		t.Errorf("sqrt lowered to %v A=%d Name=%q", d.Op, d.A, d.Name)
	}
	if d := code[2]; d.Op != DCallNative || d.A != -1 || d.Name != "spin" {
		t.Errorf("spin lowered to %v A=%d Name=%q", d.Op, d.A, d.Name)
	}
}

func TestLoweredFusion(t *testing.T) {
	p := loopProgram(t)
	low := p.Lowered(LowerFused)
	code := low.Funcs[0].Code
	// Expected stream: the loop head (loadm i, const 10, lt, jz) and the
	// increment (loadm i, const 1, add, storem i) each collapse into one
	// quad superinstruction.
	//   0: const 0
	//   1: storem i
	//   2: mc<jz  i,10 -> end   <- loop head (jump target)
	//   3: m+c>m  i,1 -> i
	//   4: jmp 2
	//   5: end
	want := []DOp{DConst, DStoreM, DFMCLtJz, DFMCAddStoreM, DJmp, DEnd}
	if len(code) != len(want) {
		t.Fatalf("fused stream length %d, want %d: %v", len(code), len(want), code)
	}
	for i, op := range want {
		if code[i].Op != op {
			t.Fatalf("instr %d: %v want %v (stream %v)", i, code[i].Op, op, code)
		}
	}
	if low.Fused != 2 {
		t.Errorf("Fused=%d want 2", low.Fused)
	}
	// Quad operands: slot of i is 0, constants decoded, branch target
	// resolved to the direct index of end.
	if code[2].A != 0 || code[2].Val.AsInt() != 10 || code[2].C != 5 || code[2].N != 4 {
		t.Errorf("loop head quad = %+v", code[2])
	}
	if code[3].A != 0 || code[3].B != 0 || code[3].Val.AsInt() != 1 || code[3].N != 4 {
		t.Errorf("increment quad = %+v", code[3])
	}
	if code[4].A != 2 { // jmp back to the loop head's quad
		t.Errorf("jmp target %d want 2", code[4].A)
	}
	// S2D maps statement boundaries; interiors of fused sequences are -1.
	s2d := low.Funcs[0].S2D
	wantS2D := []int32{0, 1, 2, -1, -1, -1, 3, -1, -1, -1, 4, 5}
	for i, w := range wantS2D {
		if s2d[i] != w {
			t.Errorf("S2D[%d]=%d want %d", i, s2d[i], w)
		}
	}
	// Step accounting: total N must equal source length.
	total := 0
	for _, d := range code {
		total += int(d.N)
	}
	if total != len(p.Funcs[0].Code) {
		t.Errorf("sum of N = %d, want %d", total, len(p.Funcs[0].Code))
	}
}

// TestLoweredPairFallback pins the pair families on a loop whose constant
// operand is loaded before the variable — no quad idiom matches, so the
// pass falls back to loadm+const, lt+jz, and add+storem pairs.
func TestLoweredPairFallback(t *testing.T) {
	p := &Program{
		Name:   "pairs",
		Consts: []value.Value{value.Int(0), value.Int(10), value.Int(1)},
		Names:  []string{"i"},
		Funcs: []FuncInfo{{Name: "<main>", Code: []Instr{
			{Op: OpConst, A: 0},  // 0: const 0
			{Op: OpStoreM, A: 0}, // 1: storem i
			{Op: OpLoadM, A: 0},  // 2: loadm i      <- loop head
			{Op: OpConst, A: 1},  // 3: const 10
			{Op: OpLt},           // 4: lt
			{Op: OpJz, A: 11},    // 5: jz end
			{Op: OpConst, A: 2},  // 6: const 1     (const first: no quad)
			{Op: OpLoadM, A: 0},  // 7: loadm i
			{Op: OpAdd},          // 8: add
			{Op: OpStoreM, A: 0}, // 9: storem i
			{Op: OpJmp, A: 2},    // 10: jmp 2
			{Op: OpEnd},          // 11: end
		}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	low := p.Lowered(LowerFused)
	code := low.Funcs[0].Code
	// 2..5 is the loop-head quad (loadm, const, lt, jz) — still a quad.
	// 6..9 (const, loadm, add, storem) is not an idiom: (const,loadm) is
	// not a pair either, so const stays single, then (loadm? no —
	// loadm@7 pairs with nothing ahead of add), (add,storem) pairs.
	want := []DOp{DConst, DStoreM, DFMCLtJz, DConst, DLoadM, DFAddStoreM, DJmp, DEnd}
	if len(code) != len(want) {
		t.Fatalf("stream length %d want %d: %v", len(code), len(want), code)
	}
	for i, op := range want {
		if code[i].Op != op {
			t.Fatalf("instr %d: %v want %v (stream %v)", i, code[i].Op, op, code)
		}
	}
	if low.Fused != 2 {
		t.Errorf("Fused=%d want 2", low.Fused)
	}
}

func TestLoweredNoFusionAcrossJumpTarget(t *testing.T) {
	// The const at pc 3 is a jump target: fusing (loadm@2, const@3) would
	// make the jmp at 7 land inside a pair and skip the load.
	p := &Program{
		Name:   "jt",
		Consts: []value.Value{value.Int(0), value.Int(1)},
		Names:  []string{"i"},
		Funcs: []FuncInfo{{Name: "<main>", Code: []Instr{
			{Op: OpConst, A: 0},  // 0
			{Op: OpStoreM, A: 0}, // 1
			{Op: OpLoadM, A: 0},  // 2: would fuse with 3...
			{Op: OpConst, A: 1},  // 3: ...but 3 is a jump target
			{Op: OpLt},           // 4
			{Op: OpJz, A: 8},     // 5
			{Op: OpLoadM, A: 0},  // 6
			{Op: OpJmp, A: 3},    // 7: jumps INTO the would-be pair
			{Op: OpEnd},          // 8
		}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	low := p.Lowered(LowerFused)
	code := low.Funcs[0].Code
	s2d := low.Funcs[0].S2D
	if s2d[3] == -1 {
		t.Fatal("jump target lowered to a pair interior")
	}
	if code[s2d[2]].Op != DLoadM {
		t.Errorf("loadm before a jump-target const fused: %v", code[s2d[2]].Op)
	}
	// (lt@4, jz@5) still fuses — 5 is not a target.
	if code[s2d[4]].Op != DFLtJz || code[s2d[4]].A != s2d[8] {
		t.Errorf("lt+jz: op=%v A=%d want target %d", code[s2d[4]].Op, code[s2d[4]].A, s2d[8])
	}
	if code[s2d[7]].Op != DJmp || code[s2d[7]].A != s2d[3] {
		t.Errorf("jmp: op=%v A=%d want target %d", code[s2d[7]].Op, code[s2d[7]].A, s2d[3])
	}
}

func TestLoweredAggregateConstNeedsClone(t *testing.T) {
	arr := value.Arr([]value.Value{value.Int(1)})
	p := &Program{
		Name:   "agg",
		Consts: []value.Value{arr, value.Int(0)},
		Names:  []string{"a"},
		Funcs: []FuncInfo{{Name: "<main>", Code: []Instr{
			{Op: OpLoadM, A: 0}, // loadm a
			{Op: OpConst, A: 0}, // const [1]  — aggregate: must NOT fuse into loadm+const
			{Op: OpPop},
			{Op: OpPop},
			{Op: OpEnd},
		}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	code := p.Lowered(LowerFused).Funcs[0].Code
	if code[0].Op != DLoadM {
		t.Errorf("loadm fused with aggregate const: %v", code[0].Op)
	}
	if code[1].Op != DConstClone {
		t.Errorf("aggregate const lowered to %v, want const*", code[1].Op)
	}
}

// TestLoweredKindSpecialization pins the LowerKind stream for the counting
// loop: the verifier proves i is an int everywhere, so the loop-head and
// increment quads swap to their guard-free .ii variants while the stream
// shape (Src, N, operands, S2D) stays byte-for-byte the fused stream's.
func TestLoweredKindSpecialization(t *testing.T) {
	p := loopProgram(t)
	low := p.Lowered(LowerKind)
	code := low.Funcs[0].Code
	want := []DOp{DConst, DStoreM, DFMCLtJzII, DFMCAddStoreMII, DJmp, DEnd}
	if len(code) != len(want) {
		t.Fatalf("kind stream length %d want %d: %v", len(code), len(want), code)
	}
	for i, op := range want {
		if code[i].Op != op {
			t.Fatalf("instr %d: %v want %v (stream %v)", i, code[i].Op, op, code)
		}
	}
	fused := p.Lowered(LowerFused).Funcs[0]
	if len(fused.Code) != len(code) {
		t.Fatalf("kind stream length %d, fused %d", len(code), len(fused.Code))
	}
	for i := range code {
		k, f := code[i], fused.Code[i]
		if k.Op.Generic() != f.Op {
			t.Errorf("instr %d: %v does not specialize %v", i, k.Op, f.Op)
		}
		if k.N != f.N || k.Src != f.Src || k.A != f.A || k.B != f.B || k.C != f.C {
			t.Errorf("instr %d: specialization changed operands: %+v vs %+v", i, k, f)
		}
	}
	for pc := range low.Funcs[0].S2D {
		if low.Funcs[0].S2D[pc] != fused.S2D[pc] {
			t.Errorf("S2D[%d] diverged: %d vs %d", pc, low.Funcs[0].S2D[pc], fused.S2D[pc])
		}
	}
}

// TestLoweredKindSpecializationRequiresProof: a Messenger variable that is
// never stored stays ⊤ (the daemon may inject anything), so its loop head
// keeps the generic guarded quad.
func TestLoweredKindSpecializationRequiresProof(t *testing.T) {
	p := &Program{
		Name:   "top",
		Consts: []value.Value{value.Int(10), value.Int(1)},
		Names:  []string{"i", "s"},
		Funcs: []FuncInfo{{Name: "<main>", Code: []Instr{
			{Op: OpLoadM, A: 0},  // 0: loadm i   <- never stored: ⊤
			{Op: OpConst, A: 0},  // 1: const 10
			{Op: OpLt},           // 2: lt
			{Op: OpJz, A: 9},     // 3: jz end
			{Op: OpLoadM, A: 1},  // 4: loadm s
			{Op: OpConst, A: 1},  // 5: const 1
			{Op: OpAdd},          // 6: add
			{Op: OpStoreM, A: 1}, // 7: storem s
			{Op: OpJmp, A: 0},    // 8
			{Op: OpEnd},          // 9
		}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	code := p.Lowered(LowerKind).Funcs[0].Code
	if code[0].Op != DFMCLtJz {
		t.Errorf("loop head over ⊤ variable specialized: %v", code[0].Op)
	}
	// s is also ⊤ at the increment: its kind joins Int (after the first
	// store) with the injectable entry state across the back edge.
	if code[1].Op != DFMCAddStoreM {
		t.Errorf("increment over ⊤ variable specialized: %v", code[1].Op)
	}
}

// TestLoweredKindNoSpecializedDivByConstZero: x = x / 0 and x = x % 0 over
// a proven-int x fuse into the quad increment, whose .ii form has no zero
// check; with a constant zero divisor the generic m/c>m and m%c>m must stay
// (their handler reports the runtime error). A nonzero divisor specializes.
func TestLoweredKindNoSpecializedDivByConstZero(t *testing.T) {
	for _, tc := range []struct {
		op      Op
		divisor int64
		want    DOp
	}{
		{OpDiv, 0, DFMCDivStoreM},
		{OpMod, 0, DFMCModStoreM},
		{OpDiv, 2, DFMCDivStoreMII},
		{OpMod, 2, DFMCModStoreMII},
	} {
		p := &Program{
			Name:   "divz",
			Consts: []value.Value{value.Int(4), value.Int(tc.divisor)},
			Names:  []string{"x"},
			Funcs: []FuncInfo{{Name: "<main>", Code: []Instr{
				{Op: OpConst, A: 0},  // const 4
				{Op: OpStoreM, A: 0}, // storem x: x is a proven int below
				{Op: OpLoadM, A: 0},  // loadm x
				{Op: OpConst, A: 1},  // const divisor
				{Op: tc.op},          // div or mod
				{Op: OpStoreM, A: 0}, // storem x
				{Op: OpEnd},
			}}},
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		code := p.Lowered(LowerKind).Funcs[0].Code
		if len(code) != 4 || code[2].Op != tc.want {
			t.Errorf("x = x %v %d lowered to %v, want %v at index 2", tc.op, tc.divisor, code, tc.want)
		}
	}
}

// TestDOpGenericRoundTrip: every specialized opcode names a generic
// counterpart with identical constituents and width, and carries a kind
// suffix in its mnemonic.
func TestDOpGenericRoundTrip(t *testing.T) {
	for o := DOp(0); o < NumDOps; o++ {
		g := o.Generic()
		if o < DAddII {
			if g != o {
				t.Errorf("%v: Generic()=%v want itself", o, g)
			}
			continue
		}
		if g >= DAddII {
			t.Errorf("%v: Generic()=%v is itself specialized", o, g)
		}
		so, sn := o.Constituents()
		go_, gn := g.Constituents()
		if so != go_ || sn != gn {
			t.Errorf("%v: constituents (%v,%d) differ from generic %v (%v,%d)", o, so, sn, g, go_, gn)
		}
		if suf := specSuffix(o); len(o.String()) <= len(suf) || o.String()[:len(o.String())-len(suf)] != g.String() {
			t.Errorf("%v: name %q does not extend generic %q with %q", o, o.String(), g.String(), suf)
		}
	}
}

func TestLoweredCacheResetOnValidate(t *testing.T) {
	p := loopProgram(t)
	l1 := p.Lowered(LowerFused)
	if l1 == nil {
		t.Fatal("nil lowered")
	}
	if p.Lowered(LowerFused) != l1 {
		t.Error("Lowered not cached")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("revalidate: %v", err)
	}
	if p.Lowered(LowerFused) == l1 {
		t.Error("Lowered cache survived Validate")
	}
}

// TestLoweredMVarSlots: lowering indexes Messenger variables into the
// program's one VarTable, whose slots follow first use, whose sorted order
// follows the names, and where two pool entries spelling one name are one
// variable.
func TestLoweredMVarSlots(t *testing.T) {
	p := &Program{
		Name:   "mv",
		Consts: []value.Value{value.Int(1)},
		Names:  []string{"x", "y", "node", "x"},
		Funcs: []FuncInfo{{Name: "<main>", Code: []Instr{
			{Op: OpConst, A: 0},
			{Op: OpStoreM, A: 1}, // y first
			{Op: OpLoadM, A: 1},
			{Op: OpStoreM, A: 0}, // then x
			{Op: OpLoadN, A: 2},  // a node variable has no slot
			{Op: OpStoreM, A: 3}, // x again, through another pool entry
			{Op: OpEnd},
		}}},
	}
	if p.VarTable() != nil {
		t.Error("an unverified program has a variable table")
	}
	unverified := p.buildVarTable()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	vt := p.VarTable()
	if !reflect.DeepEqual(vt, unverified) {
		t.Errorf("the table built from the code %+v differs from the verified one's %+v", unverified, vt)
	}
	if !reflect.DeepEqual(vt.Names, []string{"y", "x"}) || !reflect.DeepEqual(vt.Slot, []int32{1, 0, -1, 1}) ||
		!reflect.DeepEqual(vt.Sorted, []int32{1, 0}) {
		t.Fatalf("table %+v, want names [y x] (first-use order), slots [1 0 -1 1], sorted [1 0]", vt)
	}
	if s, ok := vt.Lookup("x"); !ok || s != 1 {
		t.Errorf("Lookup(x) = %d, %v", s, ok)
	}
	if _, ok := vt.Lookup("node"); ok {
		t.Error("a node variable has a Messenger-variable slot")
	}
	code := p.Lowered(LowerPlain).Funcs[0].Code
	if code[1].A != 0 || code[3].A != 1 || code[5].A != 1 {
		t.Errorf("slot assignment wrong: %v", code)
	}
}

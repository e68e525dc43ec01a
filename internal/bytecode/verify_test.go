package bytecode

import (
	"strings"
	"testing"

	"messengers/internal/value"
)

func validProgram() *Program {
	return &Program{
		Name:   "v",
		Consts: []value.Value{value.Int(1)},
		Names:  []string{"x"},
		Funcs: []FuncInfo{
			{Name: "<main>", Code: []Instr{{Op: OpConst}, {Op: OpStoreM}, {Op: OpEnd}}},
			{Name: "f", NumParams: 1, NumLocals: 2, Code: []Instr{{Op: OpLoadL}, {Op: OpRet}}},
		},
	}
}

func TestValidateAcceptsValid(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"no funcs", func(p *Program) { p.Funcs = nil }, `bytecode: program "v" has no main body`},
		{"empty code", func(p *Program) { p.Funcs[0].Code = nil }, "bytecode: <main>: empty code"},
		{"const oob", func(p *Program) { p.Funcs[0].Code[0].A = 5 }, "bytecode: <main>@0 (const): constant index 5 of 1"},
		{"const negative", func(p *Program) { p.Funcs[0].Code[0].A = -1 }, "bytecode: <main>@0 (const): constant index -1 of 1"},
		{"name oob", func(p *Program) { p.Funcs[0].Code[1].A = 9 }, "bytecode: <main>@1 (storem): name index 9 of 1"},
		{"local oob", func(p *Program) { p.Funcs[1].Code[0].A = 2 }, "bytecode: f@0 (loadl): local slot 2 of 2"},
		{"params exceed locals", func(p *Program) { p.Funcs[1].NumParams = 3 }, "bytecode: f: params 3 / locals 2 invalid"},
		{"jump oob", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpJmp, A: 99}
		}, "bytecode: <main>@0 (jmp): jump target 99 of 3"},
		{"jump negative", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpJz, A: -2}
		}, "bytecode: <main>@0 (jz): jump target -2 of 3"},
		{"callfunc main", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpCallFunc, A: 0}
		}, "bytecode: <main>@0 (callf): function index 0 of 2"},
		{"callfunc oob", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpCallFunc, A: 7}
		}, "bytecode: <main>@0 (callf): function index 7 of 2"},
		{"callfunc argc", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpCallFunc, A: 1, B: 3}
		}, "bytecode: <main>@0 (callf): argc 3 for f taking 1"},
		{"hop zero arms", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpHop, A: 0}
		}, "bytecode: <main>@0 (hop): arm count 0"},
		{"create huge arms", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpCreate, A: 1 << 20}
		}, "bytecode: <main>@0 (create): arm count 1048576"},
		{"negative argc native", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpCallNative, A: 0, B: -1}
		}, "bytecode: <main>@0 (calln): negative argc -1"},
		{"arr negative", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpArr, A: -1}
		}, "bytecode: <main>@0 (arr): negative element count -1"},
		{"unknown op", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: Op(99)}
		}, "bytecode: <main>@0 (op(99)): unknown opcode"},
		// Abstract-interpretation rejections: structurally fine programs
		// whose stack discipline is broken.
		{"pop underflow", func(p *Program) {
			p.Funcs[0].Code = []Instr{{Op: OpPop}, {Op: OpEnd}}
		}, "bytecode: <main>@0 (pop): stack underflow: pops 1 with depth 0"},
		{"ret underflow", func(p *Program) {
			p.Funcs[1].Code = []Instr{{Op: OpRet}}
		}, "bytecode: f@0 (ret): stack underflow: pops 1 with depth 0"},
		{"hop underflow", func(p *Program) {
			p.Funcs[0].Code = []Instr{{Op: OpHop, A: 1}, {Op: OpEnd}}
		}, "bytecode: <main>@0 (hop): stack underflow: pops 3 with depth 0"},
		{"unbalanced merge", func(p *Program) {
			// One branch arm pushes a value the other does not, so the merge
			// point would have a path-dependent stack depth.
			p.Funcs[0].Code = []Instr{
				{Op: OpConst},    // 1
				{Op: OpJz, A: 3}, // 0, branches to 3
				{Op: OpConst},    // 1, falls into 3
				{Op: OpStoreM},   // merge at conflicting depths
				{Op: OpEnd},
			}
		}, "bytecode: <main>@2 (const): inconsistent stack depth at merge into @3: 0 vs 1 (unbalanced branch)"},
		{"hop above statement boundary", func(p *Program) {
			// A fourth operand lingers beneath the hop's single arm: the hop
			// is not at a statement boundary.
			p.Funcs[0].Code = []Instr{
				{Op: OpConst}, {Op: OpConst}, {Op: OpConst}, {Op: OpConst},
				{Op: OpHop, A: 1},
				{Op: OpEnd},
			}
		}, "bytecode: <main>@4 (hop): 1 operands left beneath its arms (not at a statement boundary)"},
		{"create above statement boundary", func(p *Program) {
			p.Funcs[0].Code = []Instr{
				{Op: OpConst},
				{Op: OpConst}, {Op: OpConst}, {Op: OpConst},
				{Op: OpConst}, {Op: OpConst}, {Op: OpConst},
				{Op: OpCreate, A: 1},
				{Op: OpEnd},
			}
		}, "bytecode: <main>@7 (create): 1 operands left beneath its arms (not at a statement boundary)"},
		{"calln argc beyond depth", func(p *Program) {
			p.Funcs[0].Code = []Instr{
				{Op: OpConst},
				{Op: OpCallNative, A: 0, B: 2},
				{Op: OpPop},
				{Op: OpEnd},
			}
		}, "bytecode: <main>@1 (calln): argc 2 exceeds stack depth 1"},
		{"falls off end", func(p *Program) {
			p.Funcs[0].Code = []Instr{{Op: OpConst}, {Op: OpPop}}
		}, "bytecode: <main>@1 (pop): control falls off end of code"},
		{"jump to code length", func(p *Program) {
			// Branching one past the last instruction is falling off the end
			// with extra steps; the verifier demands in-range targets.
			p.Funcs[0].Code = []Instr{{Op: OpJmp, A: 2}, {Op: OpEnd}}
		}, "bytecode: <main>@0 (jmp): jump target 2 of 2"},
	}
	for _, tc := range cases {
		p := validProgram()
		tc.mutate(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: should be rejected", tc.name)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeRunsValidation(t *testing.T) {
	p := validProgram()
	p.Funcs[0].Code[0].A = 99 // invalid constant index, structurally fine
	if _, err := Decode(p.Encode()); err == nil {
		t.Error("Decode must validate operands")
	}
}

func TestValidateBoundsStackDepth(t *testing.T) {
	// A straight-line dup chain grows the stack by one per instruction;
	// past maxStackDepth the verifier must refuse rather than admit a
	// program whose snapshot size is unbounded by static analysis.
	p := validProgram()
	code := []Instr{{Op: OpConst}}
	for i := 0; i <= maxStackDepth; i++ {
		code = append(code, Instr{Op: OpDup})
	}
	code = append(code, Instr{Op: OpEnd})
	p.Funcs[0].Code = code
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "exceeds maximum") {
		t.Errorf("unbounded dup chain: err = %v", err)
	}
}

func TestValidateBoundsLocals(t *testing.T) {
	// Frame locals are allocated eagerly on entry — New allocates the main
	// frame before any instruction runs — so a decoded header must not be
	// able to demand an arbitrary allocation. Found by fuzzing.
	p := validProgram()
	p.Funcs[0].NumLocals = maxLocals + 1
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Errorf("oversized locals: err = %v", err)
	}
	p.Funcs[0].NumLocals = maxLocals
	if err := p.Validate(); err != nil {
		t.Errorf("locals at the limit rejected: %v", err)
	}
}

func TestVerifierMetadata(t *testing.T) {
	p := validProgram()
	if p.Verified() {
		t.Error("fresh program must not report verified")
	}
	if p.StackDepth(0, 0) != -1 || p.MaxStack(0) != -1 {
		t.Error("unverified metadata must be -1")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Verified() {
		t.Error("Validate must mark the program verified")
	}
	// <main>: const (0→1), storem (1→0), end.
	for pc, want := range []int{0, 1, 0} {
		if got := p.StackDepth(0, pc); got != want {
			t.Errorf("StackDepth(0, %d) = %d, want %d", pc, got, want)
		}
	}
	if got := p.MaxStack(0); got != 1 {
		t.Errorf("MaxStack(0) = %d, want 1", got)
	}
	// Out-of-range queries stay -1 instead of panicking.
	if p.StackDepth(0, 99) != -1 || p.StackDepth(5, 0) != -1 || p.MaxStack(9) != -1 {
		t.Error("out-of-range metadata queries must be -1")
	}
	// Mutating and re-validating recomputes; a now-invalid program loses
	// its verified status.
	p.Funcs[0].Code[0] = Instr{Op: OpPop}
	if err := p.Validate(); err == nil {
		t.Fatal("mutated program should fail")
	}
	if p.Verified() || p.StackDepth(0, 0) != -1 {
		t.Error("failed Validate must clear verified state")
	}
}

func TestVerifierUnreachableCode(t *testing.T) {
	// Dead code after an unconditional jump is accepted (the compiler can
	// emit it) but reported unreachable in the metadata.
	p := validProgram()
	p.Funcs[0].Code = []Instr{
		{Op: OpJmp, A: 2},
		{Op: OpNop}, // unreachable
		{Op: OpEnd},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.StackDepth(0, 1) != -1 {
		t.Errorf("unreachable pc depth = %d, want -1", p.StackDepth(0, 1))
	}
	if p.StackDepth(0, 2) != 0 {
		t.Errorf("reachable pc depth = %d, want 0", p.StackDepth(0, 2))
	}
	asm := p.DisassembleKinds()
	if !strings.Contains(asm, "maxstack=") {
		t.Errorf("DisassembleKinds missing maxstack header:\n%s", asm)
	}
	if !strings.Contains(asm, "[  -]") {
		t.Errorf("DisassembleKinds missing unreachable marker:\n%s", asm)
	}
}

// TestKindFootprintCap: a function whose abstract state would pass
// maxKindCells (4096 locals × 600 PCs) still has its depths proven exactly,
// but its kinds read ⊤ everywhere: nothing is rejected, bounded or
// specialized on the strength of a proof the verifier did not finish.
func TestKindFootprintCap(t *testing.T) {
	build := func(locals int) *Program {
		code := []Instr{
			{Op: OpConst, A: 1}, // "s"
			{Op: OpConst, A: 0}, // 1
			{Op: OpSub},         // provably str - int
			{Op: OpStoreM},
		}
		for len(code) < 596 {
			// slot[k] = 1 + 1: would lower to add.ii with kinds known.
			k := int32(len(code) % locals)
			code = append(code, Instr{Op: OpConst}, Instr{Op: OpConst}, Instr{Op: OpAdd}, Instr{Op: OpStoreL, A: k})
		}
		code = append(code, Instr{Op: OpNop}, Instr{Op: OpNop}, Instr{Op: OpNop}, Instr{Op: OpEnd})
		return &Program{
			Name:   "wide",
			Consts: []value.Value{value.Int(1), value.Str("s")},
			Names:  []string{"x"},
			Funcs:  []FuncInfo{{Name: "<main>", NumLocals: locals, Code: code}},
		}
	}
	if err := build(3000).Validate(); err == nil || err.Error() != "bytecode: <main>@2 (sub): ill-typed program: operator not defined on strings" {
		t.Fatalf("under the cap the str - int must be rejected, got %v", err)
	}
	p := build(maxLocals)
	if 600*(maxLocals+1) <= maxKindCells {
		t.Fatalf("test function no longer passes maxKindCells")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("past the cap the function must validate: %v", err)
	}
	for pc := range p.Funcs[0].Code {
		want := []int{0, 1, 2, 1}[pc%4]
		if pc >= 596 {
			want = 0
		}
		if got := p.StackDepth(0, pc); got != want {
			t.Errorf("StackDepth(0, %d) = %d, want %d", pc, got, want)
		}
	}
	if got := p.MaxStack(0); got != 2 {
		t.Errorf("MaxStack = %d, want 2", got)
	}
	if k := p.SlotKind(0, 2, 0); k != KindTop {
		t.Errorf("SlotKind of the str operand = %s, want any", k)
	}
	if k := p.LocalKind(0, 100, 0); k != KindTop {
		t.Errorf("LocalKind = %s, want any", k)
	}
	if k := p.VarKind(0, 100, 0); k != KindTop {
		t.Errorf("VarKind = %s, want any", k)
	}
	if _, _, ok := p.StateBound(); ok {
		t.Error("StateBound must refuse a function whose kinds were dropped")
	}
	for _, d := range p.Lowered(LowerKind).Funcs[0].Code {
		if d.Op.Generic() != d.Op {
			t.Fatalf("kind-specialized %s emitted without a kind proof", d.Op)
		}
	}
}

func TestVerifierHopAtDepthInsideCall(t *testing.T) {
	// The statement-boundary rule is relative to function entry, not an
	// absolute empty stack: a hop inside a callee is legal even though the
	// shared operand stack still holds the caller's pending operands.
	p := &Program{
		Name:   "deep",
		Consts: []value.Value{value.Int(1), value.Str("x")},
		Names:  []string{"x"},
		Funcs: []FuncInfo{
			{Name: "<main>", Code: []Instr{
				{Op: OpConst}, // pending operand under the call (1 + f(1))
				{Op: OpConst}, // the argument
				{Op: OpCallFunc, A: 1, B: 1},
				{Op: OpAdd},
				{Op: OpStoreM},
				{Op: OpEnd},
			}},
			{Name: "f", NumParams: 1, NumLocals: 1, Code: []Instr{
				{Op: OpConst, A: 1}, {Op: OpConst, A: 1}, {Op: OpConst, A: 1},
				{Op: OpHop, A: 1},
				{Op: OpConst},
				{Op: OpRet},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Errorf("hop at callee statement boundary rejected: %v", err)
	}
}

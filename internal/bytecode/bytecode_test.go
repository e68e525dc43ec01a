package bytecode

import (
	"strings"
	"testing"

	"messengers/internal/value"
)

func sampleProgram() *Program {
	return &Program{
		Name:   "sample",
		Source: "x = 1;",
		Consts: []value.Value{value.Int(1), value.Str("row"), value.Num(0.5)},
		Names:  []string{"x", "last"},
		Funcs: []FuncInfo{
			{
				Name: "<main>",
				Code: []Instr{
					{Op: OpConst, A: 0},
					{Op: OpStoreM, A: 0},
					{Op: OpLoadNet, A: 1},
					{Op: OpPop},
					// One hop arm = three operands (ln, ll, ldir).
					{Op: OpConst, A: 1},
					{Op: OpConst, A: 1},
					{Op: OpConst, A: 2},
					{Op: OpHop, A: 1},
					{Op: OpEnd},
				},
			},
			{
				Name: "helper", NumParams: 1, NumLocals: 2,
				Code: []Instr{
					{Op: OpLoadL, A: 0},
					{Op: OpRet},
				},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProgram()
	dec, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != p.Name || dec.Source != p.Source {
		t.Errorf("metadata: %q %q", dec.Name, dec.Source)
	}
	if len(dec.Consts) != 3 || !dec.Consts[2].Equal(value.Num(0.5)) {
		t.Errorf("consts = %v", dec.Consts)
	}
	if len(dec.Funcs) != 2 || dec.Funcs[1].NumParams != 1 || dec.Funcs[1].NumLocals != 2 {
		t.Errorf("funcs = %+v", dec.Funcs)
	}
	if dec.Funcs[0].Code[7] != (Instr{Op: OpHop, A: 1}) {
		t.Errorf("code = %+v", dec.Funcs[0].Code)
	}
}

func TestHashStability(t *testing.T) {
	a, b := sampleProgram(), sampleProgram()
	if a.Hash() != b.Hash() {
		t.Error("identical programs must hash equal")
	}
	// Source changes do not affect the hash (code identity only).
	b.Source = "different"
	if a.Hash() != b.Hash() {
		t.Error("source must not affect the hash")
	}
	// Code changes do.
	b.Funcs[0].Code[0].A = 1
	if a.Hash() == b.Hash() {
		t.Error("code change must change the hash")
	}
	if a.Hash().String() == "" || len(a.Hash().String()) != 32 {
		t.Errorf("hash string = %q", a.Hash().String())
	}
}

// TestHashMemo: a verified program computes its hash once (every remote hop
// stamps it on the message), an unverified one never trusts a memo, and
// Validate — the only legal way back to verified after a mutation — drops
// the stale value.
func TestHashMemo(t *testing.T) {
	p := sampleProgram()
	fresh := p.Hash() // unverified: computed, not stored
	if p.hash.Load() != nil {
		t.Fatal("unverified program memoised its hash")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if first, again := p.Hash(), p.Hash(); first != fresh || again != fresh || p.hash.Load() == nil {
		t.Errorf("verified Hash = %s then %s (memo %v), want %s both times", first, again, p.hash.Load(), fresh)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = p.Hash() }); allocs != 0 {
		t.Errorf("memoised Hash allocates %.0f times per call", allocs)
	}

	p.Funcs[0].Code[0].A = 1 // still a valid constant index
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	mutated := sampleProgram()
	mutated.Funcs[0].Code[0].A = 1
	if got := p.Hash(); got == fresh || got != mutated.Hash() {
		t.Errorf("mutate-then-Validate served hash %s, want %s (stale would be %s)", got, mutated.Hash(), fresh)
	}

	// A program that fails re-validation is unverified again: no memo.
	p.Funcs = nil
	if p.Validate() == nil {
		t.Fatal("empty program validated")
	}
	if p.Hash() == mutated.Hash() || p.hash.Load() != nil {
		t.Error("unverified program served or stored a memoised hash")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	enc := sampleProgram().Encode()
	for cut := 0; cut < len(enc)-1; cut += 7 {
		if _, err := Decode(enc[:cut]); err == nil {
			// Truncations that only lose source bytes are tolerated.
			if cut > len(enc)-len(sampleProgram().Source)-4 {
				continue
			}
			t.Errorf("Decode(enc[:%d]) should fail", cut)
		}
	}
	// Unknown opcode.
	bad := sampleProgram()
	bad.Funcs[0].Code[0].Op = Op(200)
	if _, err := Decode(bad.Encode()); err == nil {
		t.Error("unknown opcode should fail decode")
	}
}

func TestOpStrings(t *testing.T) {
	if OpHop.String() != "hop" || OpCallNative.String() != "calln" {
		t.Error("op names wrong")
	}
	if !strings.HasPrefix(Op(250).String(), "op(") {
		t.Errorf("unknown op = %q", Op(250).String())
	}
}

func TestDisassembleSample(t *testing.T) {
	asm := sampleProgram().Disassemble()
	for _, want := range []string{"const 1", "storem x", "loadnet last", "hop arms=1", "helper"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

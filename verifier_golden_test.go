package messengers

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVerifierGolden pins the verifier's per-PC proof over every program
// the repository ships: the annotated disassembly (stack depth and slot
// kinds), the kind of every local and tracked Messenger variable on entry
// to every PC, and StateBound. A change to the verifier that is meant to be
// behaviour-preserving must leave testdata/verifier_golden.txt
// byte-identical; rewrite it with -update only for an intended change to
// what the verifier proves.
func TestVerifierGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range shippedPrograms(t) {
		fmt.Fprintf(&b, "=== %s\n", p.Name)
		b.WriteString(p.DisassembleKinds())
		vars := p.VarTable().Names
		for fi := range p.Funcs {
			f := &p.Funcs[fi]
			for pc := range f.Code {
				fmt.Fprintf(&b, "  %d.%d locals(", fi, pc)
				for l := 0; l < f.NumLocals; l++ {
					if l > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(p.LocalKind(fi, pc, l).String())
				}
				b.WriteString(") vars(")
				for i, name := range vars {
					if i > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%s:%s", name, p.VarKind(fi, pc, i))
				}
				b.WriteString(")\n")
			}
		}
		base, inherited, ok := p.StateBound()
		fmt.Fprintf(&b, "  statebound base=%d inherited=%v ok=%v\n", base, inherited, ok)
	}
	got := b.String()
	golden := filepath.Join("testdata", "verifier_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("verifier proofs differ from %s (run with -update only for an intended change to the verifier)", golden)
	}
}

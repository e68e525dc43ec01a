package compile

import (
	"fmt"
	"os"
	"testing"
)

// pinnedSrc compiles to every constant kind a literal can have, a function
// and a hop, so its encoding walks each branch of Program.Encode.
const pinnedSrc = `func scale(a, k) { return a * k; }
x = scale(1.5, 4); s = "row"; n = 7;
arr = [1, "two", 3.0];
node.seen = node.seen + 1;
hop(ll = s, ldir = +);`

// TestProgramBytesArePinned: a program's hash is its name in every registry
// and on every hop, so neither it nor the encoding it is taken over may move
// when the encoder under them does. testdata/pinned_program.txt was printed
// by the tree in which bytecode still appended its bytes by hand (PR 22).
func TestProgramBytesArePinned(t *testing.T) {
	p := MustCompile("pinned", pinnedSrc)
	got := fmt.Sprintf("hash %s\nencode %x\n", p.Hash(), p.Encode())
	want, err := os.ReadFile("testdata/pinned_program.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("program bytes moved:\n got %s\nwant %s", got, want)
	}
}

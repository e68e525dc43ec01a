package messengers

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"messengers/internal/bytecode"
	"messengers/internal/value"
	"messengers/internal/vm"
)

// goldenHost is the stub host the snapshot golden drives programs under:
// node variables in one map, fixed network variables, no output.
type goldenHost struct {
	node   map[string]value.Value
	script string
}

func (h *goldenHost) NodeVar(name string) value.Value       { return h.node[name] }
func (h *goldenHost) SetNodeVar(name string, v value.Value) { h.node[name] = v }
func (h *goldenHost) Print(string)                          {}
func (h *goldenHost) NetVar(name string) (value.Value, bool) {
	switch name {
	case "address":
		return value.Str("d0"), true
	case "daemon":
		return value.Int(0), true
	case "ndaemons":
		return value.Int(4), true
	case "last":
		return value.Str("l0"), true
	case "node":
		return value.Str("init"), true
	case "script":
		return value.Str(h.script), true
	case "time", "gvt":
		return value.Num(0), true
	}
	return value.Nil(), false
}

// unreferenced returns base, suffixed until p references no variable of
// that name.
func unreferenced(p *bytecode.Program, base string) string {
	for slices.Contains(p.VarTable().Names, base) {
		base += "_"
	}
	return base
}

// snapshotTrace runs a fresh VM of p with vars under a stub host whose
// natives return nil, and records SnapshotSize and the snapshot bytes at
// each of the first few navigational pauses.
func snapshotTrace(b *strings.Builder, p *bytecode.Program, vars map[string]value.Value) {
	const navPauses, segments, stepsPerSegment = 4, 256, 1 << 16
	m := vm.New(p, vars)
	h := &goldenHost{node: map[string]value.Value{}, script: p.Name}
	navs := 0
	for seg := 0; seg < segments && navs < navPauses; seg++ {
		res, err := m.Run(h, stepsPerSegment)
		if err != nil {
			fmt.Fprintf(b, "  error %v\n", err)
			return
		}
		switch res.Pause {
		case vm.PauseEnd:
			b.WriteString("  end\n")
			return
		case vm.PauseNative:
			m.PushResult(value.Nil())
			continue
		case vm.PauseHop, vm.PauseCreate, vm.PauseDelete:
		default:
			continue
		}
		navs++
		snap, err := m.Snapshot()
		if err != nil {
			fmt.Fprintf(b, "  %v size=%d snapshot error %v\n", res.Pause, m.SnapshotSize(), err)
			continue
		}
		enc := fmt.Sprintf("%x", snap)
		if len(snap) > 512 {
			enc = fmt.Sprintf("sha256:%x", sha256.Sum256(snap))
		}
		fmt.Fprintf(b, "  %v size=%d bytes=%s\n", res.Pause, m.SnapshotSize(), enc)
	}
}

// TestSnapshotGolden pins the snapshot bytes of every program the
// repository ships. Each runs under a stub host with one injected variable
// it never references and one nil value: on their own, then with every
// variable the program references injected as 2 (so loops bounded by a
// parameter run), then with the last of those injected as nil instead. The
// first few navigational pauses of each run record SnapshotSize and the
// snapshot itself. A change to how the VM holds its Messenger variables
// must leave testdata/snapshot_golden.txt byte-identical; rewrite it with
// -update only for an intended change to the snapshot format.
func TestSnapshotGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range shippedPrograms(t) {
		fmt.Fprintf(&b, "=== %s\n", p.Name)
		vars := func(tracked value.Value) map[string]value.Value {
			v := map[string]value.Value{
				unreferenced(p, "extra"): value.Arr([]value.Value{value.Int(7), value.Str("aboard")}),
				unreferenced(p, "none"):  value.Nil(),
			}
			if !tracked.IsNil() {
				for _, name := range p.VarTable().Names {
					v[name] = tracked
				}
			}
			return v
		}
		snapshotTrace(&b, p, vars(value.Nil()))
		tracked := p.VarTable().Names
		if len(tracked) == 0 {
			continue
		}
		b.WriteString(" with tracked=2\n")
		snapshotTrace(&b, p, vars(value.Int(2)))
		last := tracked[len(tracked)-1]
		withNil := vars(value.Int(2))
		withNil[last] = value.Nil()
		fmt.Fprintf(&b, " with tracked=2 %s=nil\n", last)
		snapshotTrace(&b, p, withNil)
	}
	got := b.String()
	golden := filepath.Join("testdata", "snapshot_golden.txt")
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
		t.Errorf("snapshots differ from %s (run with -update only for an intended change to the snapshot format)", golden)
	}
}

package bytecode

import (
	"slices"
	"strings"
)

// VarTable is a program's one Messenger-variable table. Every name that
// some OpLoadM or OpStoreM uses gets a slot, numbered in first-reference
// order over the functions' code. The verifier's kind states, the lowered
// stream's Messenger-variable operands and the VM's variable area are all
// indexed by these slots, and a snapshot writes the variables in the
// table's name order.
type VarTable struct {
	// Names maps a slot to its variable's name.
	Names []string
	// Slot maps a name-pool index to its slot, or -1 for a name no
	// OpLoadM/OpStoreM uses.
	Slot []int32
	// Sorted lists the slots in name order.
	Sorted []int32
}

// VarTable returns the program's Messenger-variable table, which Validate
// builds.
func (p *Program) VarTable() *VarTable { return p.vars }

// buildVarTable derives the table from code whose operands Validate has
// checked. Two pool entries that spell the same name share a slot.
func (p *Program) buildVarTable() *VarTable {
	t := &VarTable{Slot: make([]int32, len(p.Names))}
	for i := range t.Slot {
		t.Slot[i] = -1
	}
	byName := map[string]int32{}
	for fi := range p.Funcs {
		for _, ins := range p.Funcs[fi].Code {
			if ins.Op != OpLoadM && ins.Op != OpStoreM || t.Slot[ins.A] >= 0 {
				continue
			}
			name := p.Names[ins.A]
			s, ok := byName[name]
			if !ok {
				s = int32(len(t.Names))
				byName[name] = s
				t.Names = append(t.Names, name)
			}
			t.Slot[ins.A] = s
		}
	}
	t.Sorted = make([]int32, len(t.Names))
	for i := range t.Sorted {
		t.Sorted[i] = int32(i)
	}
	slices.SortFunc(t.Sorted, func(a, b int32) int { return strings.Compare(t.Names[a], t.Names[b]) })
	return t
}

// Lookup returns the slot of the named variable, or false when the program
// never loads or stores it.
func (t *VarTable) Lookup(name string) (int, bool) {
	i, ok := slices.BinarySearchFunc(t.Sorted, name, func(s int32, name string) int {
		return strings.Compare(t.Names[s], name)
	})
	if !ok {
		return -1, false
	}
	return int(t.Sorted[i]), true
}

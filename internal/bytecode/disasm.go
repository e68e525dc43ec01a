package bytecode

import (
	"fmt"
	"strings"
)

// Disassemble renders the program as readable assembly, one function per
// section, for the msl tool and debugging.
func (p *Program) Disassemble() string {
	return p.disassemble(false)
}

// DisassembleKinds renders the assembly with the verifier's columns: the
// per-PC stack depth ("-" for unreachable code) and the kind-flow proof
// for every live operand stack slot on entry to the instruction, bottom to
// top ("any" marks a slot the analysis could not narrow — the VM keeps its
// dynamic guards there), plus each function's maximum depth in its header.
// This is what msl vet prints. Unverified programs render like
// Disassemble.
func (p *Program) DisassembleKinds() string {
	return p.disassemble(true)
}

func (p *Program) disassemble(depths bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q  hash=%s\n", p.Name, p.Hash())
	for i, c := range p.Consts {
		fmt.Fprintf(&b, "  const[%d] = %s\n", i, c.String())
	}
	for i, n := range p.Names {
		fmt.Fprintf(&b, "  name[%d] = %s\n", i, n)
	}
	depths = depths && p.verified
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		label := f.Name
		if fi == 0 {
			label = "<main>"
		}
		fmt.Fprintf(&b, "func %d %s (params=%d locals=%d", fi, label, f.NumParams, f.NumLocals)
		if depths {
			fmt.Fprintf(&b, " maxstack=%d", p.MaxStack(fi))
		}
		b.WriteString(")\n")
		for pc, ins := range f.Code {
			if depths {
				if d := p.StackDepth(fi, pc); d >= 0 {
					fmt.Fprintf(&b, "  %4d [%3d] %-18s", pc, d, p.kindColumn(fi, pc, d))
				} else {
					fmt.Fprintf(&b, "  %4d [  -] %-18s", pc, "")
				}
				fmt.Fprintf(&b, "  %s", p.instrString(ins))
			} else {
				fmt.Fprintf(&b, "  %4d  %s", pc, p.instrString(ins))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// kindColumn renders the proven kinds of the d live stack slots on entry
// to Funcs[fi].Code[pc], bottom to top.
func (p *Program) kindColumn(fi, pc, d int) string {
	var b strings.Builder
	b.WriteByte('(')
	for j := 0; j < d; j++ {
		if j > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.SlotKind(fi, pc, j).String())
	}
	b.WriteByte(')')
	return b.String()
}

func (p *Program) instrString(ins Instr) string {
	name := func(i int32) string {
		if i >= 0 && int(i) < len(p.Names) {
			return p.Names[i]
		}
		return fmt.Sprintf("?%d", i)
	}
	switch ins.Op {
	case OpConst:
		if ins.A >= 0 && int(ins.A) < len(p.Consts) {
			return fmt.Sprintf("const %s", p.Consts[ins.A].String())
		}
		return fmt.Sprintf("const ?%d", ins.A)
	case OpLoadM, OpStoreM, OpLoadN, OpStoreN, OpLoadNet:
		return fmt.Sprintf("%s %s", ins.Op, name(ins.A))
	case OpLoadL, OpStoreL:
		return fmt.Sprintf("%s slot%d", ins.Op, ins.A)
	case OpJmp, OpJz:
		return fmt.Sprintf("%s -> %d", ins.Op, ins.A)
	case OpArr:
		return fmt.Sprintf("arr %d", ins.A)
	case OpCallFunc:
		fname := fmt.Sprintf("?%d", ins.A)
		if ins.A >= 0 && int(ins.A) < len(p.Funcs) {
			fname = p.Funcs[ins.A].Name
		}
		return fmt.Sprintf("callf %s argc=%d", fname, ins.B)
	case OpCallNative:
		return fmt.Sprintf("calln %s argc=%d", name(ins.A), ins.B)
	case OpHop, OpDelete:
		return fmt.Sprintf("%s arms=%d", ins.Op, ins.A)
	case OpCreate:
		all := ""
		if ins.B != 0 {
			all = " ALL"
		}
		return fmt.Sprintf("create arms=%d%s", ins.A, all)
	default:
		return ins.Op.String()
	}
}

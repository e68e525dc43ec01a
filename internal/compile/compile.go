// Package compile translates MSL abstract syntax trees into bytecode
// programs for the Messenger virtual machine.
package compile

import (
	"fmt"

	"messengers/internal/bytecode"
	"messengers/internal/script"
	"messengers/internal/value"
)

// Compile parses and compiles MSL source into a program registered under
// name.
func Compile(name, src string) (*bytecode.Program, error) {
	ast, err := script.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileScript(name, src, ast)
}

// MustCompile is Compile for statically known-good scripts; it panics on
// error.
func MustCompile(name, src string) *bytecode.Program { //lint:deadcode test support: tests in most packages compile fixed scripts with it
	p, err := Compile(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

// CompileScript compiles a parsed script.
func CompileScript(name, src string, ast *script.Script) (*bytecode.Program, error) {
	c := &compiler{
		prog:     &bytecode.Program{Name: name, Source: src},
		constIdx: map[string]int32{},
		nameIdx:  map[string]int32{},
		funcIdx:  map[string]int{},
	}
	// Function index 0 is the main body; user functions follow.
	c.prog.Funcs = make([]bytecode.FuncInfo, 1+len(ast.Funcs))
	c.prog.Funcs[0].Name = "<main>"
	for i, f := range ast.Funcs {
		c.prog.Funcs[1+i] = bytecode.FuncInfo{Name: f.Name, NumParams: len(f.Params)}
		c.funcIdx[f.Name] = 1 + i
	}
	for i, f := range ast.Funcs {
		if err := c.compileFunc(1+i, f); err != nil {
			return nil, err
		}
	}
	if err := c.compileMain(ast.Body); err != nil {
		return nil, err
	}
	// Every compiled program must pass the bytecode verifier before it can
	// be registered or shipped; a failure here is a compiler bug, reported
	// as an error so daemons never execute unverifiable code. This also
	// attaches the per-PC stack-depth metadata Restore checks snapshots
	// against.
	if err := c.prog.Validate(); err != nil {
		return nil, fmt.Errorf("msl: compiler emitted unverifiable bytecode: %w", err)
	}
	return c.prog, nil
}

type compiler struct {
	prog     *bytecode.Program
	constIdx map[string]int32
	nameIdx  map[string]int32
	funcIdx  map[string]int
}

// fnCtx is per-function compilation state.
type fnCtx struct {
	c      *compiler
	code   []bytecode.Instr
	inFunc bool // bare identifiers are locals rather than Messenger vars
	locals map[string]int32
	loops  []*loopCtx
}

type loopCtx struct {
	breakPatches    []int
	continuePatches []int
}

func (c *compiler) compileMain(body []script.Stmt) error {
	fc := &fnCtx{c: c}
	for _, st := range body {
		if err := fc.stmt(st); err != nil {
			return err
		}
	}
	fc.emit(bytecode.OpEnd, 0, 0)
	c.prog.Funcs[0].Code = fc.code
	return nil
}

func (c *compiler) compileFunc(fi int, f *script.FuncDecl) error {
	fc := &fnCtx{c: c, inFunc: true, locals: map[string]int32{}}
	for _, p := range f.Params {
		fc.locals[p] = int32(len(fc.locals))
	}
	for _, st := range f.Body {
		if err := fc.stmt(st); err != nil {
			return err
		}
	}
	// Implicit "return nil" at the end.
	fc.emitConst(value.Nil())
	fc.emit(bytecode.OpRet, 0, 0)
	c.prog.Funcs[fi].Code = fc.code
	c.prog.Funcs[fi].NumLocals = len(fc.locals)
	return nil
}

// --- emission helpers ---

func (f *fnCtx) emit(op bytecode.Op, a, b int32) int {
	f.code = append(f.code, bytecode.Instr{Op: op, A: a, B: b})
	return len(f.code) - 1
}

func (f *fnCtx) here() int32 { return int32(len(f.code)) }

func (f *fnCtx) patch(at int, target int32) { f.code[at].A = target }

func (f *fnCtx) emitConst(v value.Value) {
	f.emit(bytecode.OpConst, f.c.constRef(v), 0)
}

func (c *compiler) constRef(v value.Value) int32 {
	// Literals are bounded by the source text, far below the codec's
	// length limit, so the encode error is unreachable here.
	enc, _ := value.Append(nil, v)
	key := v.Kind().String() + "\x00" + string(enc)
	if i, ok := c.constIdx[key]; ok {
		return i
	}
	i := int32(len(c.prog.Consts))
	c.prog.Consts = append(c.prog.Consts, v)
	c.constIdx[key] = i
	return i
}

func (c *compiler) nameRef(n string) int32 {
	if i, ok := c.nameIdx[n]; ok {
		return i
	}
	i := int32(len(c.prog.Names))
	c.prog.Names = append(c.prog.Names, n)
	c.nameIdx[n] = i
	return i
}

func cerr(pos script.Pos, format string, args ...any) error {
	return fmt.Errorf("msl:%s: %s", pos, fmt.Sprintf(format, args...))
}

// --- statements ---

func (f *fnCtx) stmts(list []script.Stmt) error {
	for _, st := range list {
		if err := f.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (f *fnCtx) stmt(st script.Stmt) error {
	switch s := st.(type) {
	case *script.AssignStmt:
		return f.assign(s.Target, s.Op, s.Value)
	case *script.IncDecStmt:
		op := script.PLUS
		if s.Dec {
			op = script.MINUS
		}
		return f.assign(s.Target, op, &script.IntLit{Pos: s.Pos, V: 1})
	case *script.ExprStmt:
		if err := f.expr(s.X); err != nil {
			return err
		}
		f.emit(bytecode.OpPop, 0, 0)
		return nil
	case *script.IfStmt:
		return f.ifStmt(s)
	case *script.WhileStmt:
		return f.whileStmt(s)
	case *script.ForStmt:
		return f.forStmt(s)
	case *script.BreakStmt:
		if len(f.loops) == 0 {
			return cerr(s.Pos, "break outside loop")
		}
		at := f.emit(bytecode.OpJmp, 0, 0)
		top := f.loops[len(f.loops)-1]
		top.breakPatches = append(top.breakPatches, at)
		return nil
	case *script.ContinueStmt:
		if len(f.loops) == 0 {
			return cerr(s.Pos, "continue outside loop")
		}
		at := f.emit(bytecode.OpJmp, 0, 0)
		top := f.loops[len(f.loops)-1]
		top.continuePatches = append(top.continuePatches, at)
		return nil
	case *script.ReturnStmt:
		if s.Value != nil {
			if err := f.expr(s.Value); err != nil {
				return err
			}
		} else {
			f.emitConst(value.Nil())
		}
		f.emit(bytecode.OpRet, 0, 0)
		return nil
	case *script.EndStmt:
		f.emit(bytecode.OpEnd, 0, 0)
		return nil
	case *script.NavStmt:
		return f.navStmt(s)
	default:
		return fmt.Errorf("msl: unknown statement %T", st)
	}
}

func (f *fnCtx) ifStmt(s *script.IfStmt) error {
	if err := f.expr(s.Cond); err != nil {
		return err
	}
	jz := f.emit(bytecode.OpJz, 0, 0)
	if err := f.stmts(s.Then); err != nil {
		return err
	}
	if len(s.Else) == 0 {
		f.patch(jz, f.here())
		return nil
	}
	jmp := f.emit(bytecode.OpJmp, 0, 0)
	f.patch(jz, f.here())
	if err := f.stmts(s.Else); err != nil {
		return err
	}
	f.patch(jmp, f.here())
	return nil
}

func (f *fnCtx) whileStmt(s *script.WhileStmt) error {
	top := f.here()
	if err := f.expr(s.Cond); err != nil {
		return err
	}
	jz := f.emit(bytecode.OpJz, 0, 0)
	loop := &loopCtx{}
	f.loops = append(f.loops, loop)
	if err := f.stmts(s.Body); err != nil {
		return err
	}
	f.loops = f.loops[:len(f.loops)-1]
	f.emit(bytecode.OpJmp, top, 0)
	end := f.here()
	f.patch(jz, end)
	for _, at := range loop.breakPatches {
		f.patch(at, end)
	}
	for _, at := range loop.continuePatches {
		f.patch(at, top)
	}
	return nil
}

func (f *fnCtx) forStmt(s *script.ForStmt) error {
	if s.Init != nil {
		if err := f.stmt(s.Init); err != nil {
			return err
		}
	}
	top := f.here()
	jz := -1
	if s.Cond != nil {
		if err := f.expr(s.Cond); err != nil {
			return err
		}
		jz = f.emit(bytecode.OpJz, 0, 0)
	}
	loop := &loopCtx{}
	f.loops = append(f.loops, loop)
	if err := f.stmts(s.Body); err != nil {
		return err
	}
	f.loops = f.loops[:len(f.loops)-1]
	postAt := f.here()
	if s.Post != nil {
		if err := f.stmt(s.Post); err != nil {
			return err
		}
	}
	f.emit(bytecode.OpJmp, top, 0)
	end := f.here()
	if jz >= 0 {
		f.patch(jz, end)
	}
	for _, at := range loop.breakPatches {
		f.patch(at, end)
	}
	for _, at := range loop.continuePatches {
		f.patch(at, postAt)
	}
	return nil
}

// navDefaults returns the default value for a navigational field.
func navDefault(kind script.NavKind, field script.NavField) value.Value {
	if kind == script.NavCreate {
		switch field {
		case script.FieldLN, script.FieldLL, script.FieldLDir:
			return value.Str("~") // unnamed node/link, undirected
		default:
			return value.Str("*") // any daemon
		}
	}
	return value.Str("*") // hop/delete: match anything
}

func (f *fnCtx) navStmt(s *script.NavStmt) error {
	nFields := script.NavField(3)
	if s.Kind == script.NavCreate {
		nFields = 6
	}
	arms := 1
	for fd := script.NavField(0); fd < nFields; fd++ {
		if n := len(s.Fields[fd]); n > arms {
			arms = n
		}
	}
	for arm := 0; arm < arms; arm++ {
		for fd := script.NavField(0); fd < nFields; fd++ {
			list := s.Fields[fd]
			switch {
			case arm < len(list):
				if err := f.expr(list[arm]); err != nil {
					return err
				}
			case len(list) == 1 && s.Kind != script.NavCreate:
				// A single value broadcast across arms for matching
				// statements (hop(ll=x) with ln=a,b).
				if err := f.expr(list[0]); err != nil {
					return err
				}
			default:
				f.emitConst(navDefault(s.Kind, fd))
			}
		}
	}
	var op bytecode.Op
	switch s.Kind {
	case script.NavHop:
		op = bytecode.OpHop
	case script.NavCreate:
		op = bytecode.OpCreate
	default:
		op = bytecode.OpDelete
	}
	all := int32(0)
	if s.All {
		all = 1
	}
	f.emit(op, int32(arms), all)
	return nil
}

// assign compiles target = value (op 0) or target op= value.
func (f *fnCtx) assign(target script.Expr, op script.Kind, val script.Expr) error {
	switch t := target.(type) {
	case *script.VarExpr:
		if op != 0 {
			if err := f.loadVar(t); err != nil {
				return err
			}
			if err := f.expr(val); err != nil {
				return err
			}
			f.emit(binOp(op), 0, 0)
		} else {
			if err := f.expr(val); err != nil {
				return err
			}
		}
		return f.storeVar(t)
	case *script.IndexExpr:
		if err := f.expr(t.Base); err != nil {
			return err
		}
		if err := f.expr(t.Idx); err != nil {
			return err
		}
		if op != 0 {
			f.emit(bytecode.OpDup2, 0, 0)
			f.emit(bytecode.OpIndex, 0, 0)
			if err := f.expr(val); err != nil {
				return err
			}
			f.emit(binOp(op), 0, 0)
		} else {
			if err := f.expr(val); err != nil {
				return err
			}
		}
		f.emit(bytecode.OpSetIndex, 0, 0)
		return nil
	default:
		return cerr(target.StartPos(), "cannot assign to this expression")
	}
}

func (f *fnCtx) loadVar(v *script.VarExpr) error {
	switch v.Space {
	case script.SpaceAuto:
		if f.inFunc {
			slot, ok := f.locals[v.Name]
			if !ok {
				return cerr(v.Pos, "undefined local %q (assign it first, or use msgr.%s for a Messenger variable)", v.Name, v.Name)
			}
			f.emit(bytecode.OpLoadL, slot, 0)
			return nil
		}
		f.emit(bytecode.OpLoadM, f.c.nameRef(v.Name), 0)
		return nil
	case script.SpaceMsgr:
		f.emit(bytecode.OpLoadM, f.c.nameRef(v.Name), 0)
		return nil
	case script.SpaceNode:
		f.emit(bytecode.OpLoadN, f.c.nameRef(v.Name), 0)
		return nil
	default:
		f.emit(bytecode.OpLoadNet, f.c.nameRef(v.Name), 0)
		return nil
	}
}

func (f *fnCtx) storeVar(v *script.VarExpr) error {
	switch v.Space {
	case script.SpaceAuto:
		if f.inFunc {
			slot, ok := f.locals[v.Name]
			if !ok {
				slot = int32(len(f.locals))
				f.locals[v.Name] = slot
			}
			f.emit(bytecode.OpStoreL, slot, 0)
			return nil
		}
		f.emit(bytecode.OpStoreM, f.c.nameRef(v.Name), 0)
		return nil
	case script.SpaceMsgr:
		f.emit(bytecode.OpStoreM, f.c.nameRef(v.Name), 0)
		return nil
	case script.SpaceNode:
		f.emit(bytecode.OpStoreN, f.c.nameRef(v.Name), 0)
		return nil
	default:
		return cerr(v.Pos, "network variable $%s is read-only", v.Name)
	}
}

func binOp(k script.Kind) bytecode.Op {
	switch k {
	case script.PLUS:
		return bytecode.OpAdd
	case script.MINUS:
		return bytecode.OpSub
	case script.STAR:
		return bytecode.OpMul
	case script.SLASH:
		return bytecode.OpDiv
	case script.PERCENT:
		return bytecode.OpMod
	case script.EQ:
		return bytecode.OpEq
	case script.NE:
		return bytecode.OpNe
	case script.LT:
		return bytecode.OpLt
	case script.LE:
		return bytecode.OpLe
	case script.GT:
		return bytecode.OpGt
	case script.GE:
		return bytecode.OpGe
	default:
		panic(fmt.Sprintf("msl: no opcode for operator %v", k))
	}
}

// --- expressions ---

func (f *fnCtx) expr(e script.Expr) error {
	switch x := e.(type) {
	case *script.IntLit:
		f.emitConst(value.Int(x.V))
	case *script.NumLit:
		f.emitConst(value.Num(x.V))
	case *script.StrLit:
		f.emitConst(value.Str(x.V))
	case *script.NilLit:
		f.emitConst(value.Nil())
	case *script.VarExpr:
		return f.loadVar(x)
	case *script.UnaryExpr:
		if err := f.expr(x.X); err != nil {
			return err
		}
		if x.Op == script.MINUS {
			f.emit(bytecode.OpNeg, 0, 0)
		} else {
			f.emit(bytecode.OpNot, 0, 0)
		}
	case *script.BinaryExpr:
		return f.binary(x)
	case *script.CallExpr:
		return f.call(x)
	case *script.IndexExpr:
		if err := f.expr(x.Base); err != nil {
			return err
		}
		if err := f.expr(x.Idx); err != nil {
			return err
		}
		f.emit(bytecode.OpIndex, 0, 0)
	case *script.ArrayLit:
		for _, el := range x.Elems {
			if err := f.expr(el); err != nil {
				return err
			}
		}
		f.emit(bytecode.OpArr, int32(len(x.Elems)), 0)
	case *script.AssignExpr:
		return f.assignExpr(x)
	default:
		return fmt.Errorf("msl: unknown expression %T", e)
	}
	return nil
}

func (f *fnCtx) assignExpr(x *script.AssignExpr) error {
	switch t := x.Target.(type) {
	case *script.VarExpr:
		if err := f.expr(x.Value); err != nil {
			return err
		}
		f.emit(bytecode.OpDup, 0, 0)
		return f.storeVar(t)
	case *script.IndexExpr:
		if err := f.expr(t.Base); err != nil {
			return err
		}
		if err := f.expr(t.Idx); err != nil {
			return err
		}
		if err := f.expr(x.Value); err != nil {
			return err
		}
		f.emit(bytecode.OpSetIndex, 0, 1) // keep value
		return nil
	default:
		return cerr(x.Pos, "cannot assign to this expression")
	}
}

func (f *fnCtx) binary(x *script.BinaryExpr) error {
	switch x.Op {
	case script.ANDAND:
		if err := f.expr(x.L); err != nil {
			return err
		}
		jz1 := f.emit(bytecode.OpJz, 0, 0)
		if err := f.expr(x.R); err != nil {
			return err
		}
		jz2 := f.emit(bytecode.OpJz, 0, 0)
		f.emitConst(value.Int(1))
		jmp := f.emit(bytecode.OpJmp, 0, 0)
		f.patch(jz1, f.here())
		f.patch(jz2, f.here())
		f.emitConst(value.Int(0))
		f.patch(jmp, f.here())
		return nil
	case script.OROR:
		if err := f.expr(x.L); err != nil {
			return err
		}
		jz1 := f.emit(bytecode.OpJz, 0, 0)
		f.emitConst(value.Int(1))
		jmpEnd1 := f.emit(bytecode.OpJmp, 0, 0)
		f.patch(jz1, f.here())
		if err := f.expr(x.R); err != nil {
			return err
		}
		jz2 := f.emit(bytecode.OpJz, 0, 0)
		f.emitConst(value.Int(1))
		jmpEnd2 := f.emit(bytecode.OpJmp, 0, 0)
		f.patch(jz2, f.here())
		f.emitConst(value.Int(0))
		f.patch(jmpEnd1, f.here())
		f.patch(jmpEnd2, f.here())
		return nil
	default:
		if err := f.expr(x.L); err != nil {
			return err
		}
		if err := f.expr(x.R); err != nil {
			return err
		}
		f.emit(binOp(x.Op), 0, 0)
		return nil
	}
}

func (f *fnCtx) call(x *script.CallExpr) error {
	for _, a := range x.Args {
		if err := f.expr(a); err != nil {
			return err
		}
	}
	if fi, ok := f.c.funcIdx[x.Name]; ok {
		want := f.c.prog.Funcs[fi].NumParams
		if len(x.Args) != want {
			return cerr(x.Pos, "function %q takes %d arguments, got %d", x.Name, want, len(x.Args))
		}
		f.emit(bytecode.OpCallFunc, int32(fi), int32(len(x.Args)))
		return nil
	}
	// Scheduling calls compile to dedicated pause instructions.
	switch x.Name {
	case "sched_abs", "M_sched_time_abs":
		if len(x.Args) != 1 {
			return cerr(x.Pos, "%s takes 1 argument", x.Name)
		}
		f.emit(bytecode.OpSchedAbs, 0, 0)
		// A suspension yields no value; push nil for expression position.
		f.emitConst(value.Nil())
		return nil
	case "sched_dlt", "M_sched_time_dlt":
		if len(x.Args) != 1 {
			return cerr(x.Pos, "%s takes 1 argument", x.Name)
		}
		f.emit(bytecode.OpSchedDlt, 0, 0)
		f.emitConst(value.Nil())
		return nil
	}
	f.emit(bytecode.OpCallNative, f.c.nameRef(x.Name), int32(len(x.Args)))
	return nil
}

package vm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"messengers/internal/value"
)

// builtinFunc executes inline in the VM (a computational statement in the
// paper's taxonomy, unlike native-mode functions which are daemon-level
// interruption points).
type builtinFunc func(m *VM, host Host, args []value.Value) (value.Value, error)

// builtins is the table of inline library functions available to every
// script, in bytecode.KnownNatives() order: lowering resolves a call's name
// to its index once, and the threaded loop indexes this table with it.
var builtins = [...]struct {
	name string
	fn   builtinFunc
}{
	{"abs", biAbs},
	{"array", biArray},
	{"bytes", biBytes},
	{"ceil", biCeil},
	{"cols", biCols},
	{"copy", biCopy},
	{"floor", biFloor},
	{"int", biInt},
	{"len", biLen},
	{"matget", biMatGet},
	{"matrix", biMatrix},
	{"matset", biMatSet},
	{"max", biMinMax(false)},
	{"min", biMinMax(true)},
	{"num", biNum},
	{"pow", biPow},
	{"print", biPrint},
	{"rows", biRows},
	{"sqrt", biSqrt},
	{"str", biStr},
	{"substr", biSubstr},
}

func wantArgs(args []value.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("want %d arguments, got %d", n, len(args))
	}
	return nil
}

func biLen(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	return value.Int(int64(args[0].Len())), nil
}

func biPrint(_ *VM, host Host, args []value.Value) (value.Value, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.Format()
	}
	host.Print(strings.Join(parts, " "))
	return value.Nil(), nil
}

func biStr(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	return value.Str(args[0].Format()), nil
}

func biInt(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	a := args[0]
	switch a.Kind() {
	case value.KindInt, value.KindNum:
		return value.Int(a.AsInt()), nil
	case value.KindStr:
		n, err := strconv.ParseInt(strings.TrimSpace(a.AsStr()), 10, 64)
		if err != nil {
			return value.Nil(), fmt.Errorf("cannot parse %q as int", a.AsStr())
		}
		return value.Int(n), nil
	default:
		return value.Nil(), fmt.Errorf("cannot convert %v to int", a.Kind())
	}
}

func biNum(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	a := args[0]
	switch a.Kind() {
	case value.KindInt, value.KindNum:
		return value.Num(a.AsNum()), nil
	case value.KindStr:
		f, err := strconv.ParseFloat(strings.TrimSpace(a.AsStr()), 64)
		if err != nil {
			return value.Nil(), fmt.Errorf("cannot parse %q as num", a.AsStr())
		}
		return value.Num(f), nil
	default:
		return value.Nil(), fmt.Errorf("cannot convert %v to num", a.Kind())
	}
}

func biAbs(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	a := args[0]
	switch a.Kind() {
	case value.KindInt:
		n := a.AsInt()
		if n < 0 {
			n = -n
		}
		return value.Int(n), nil
	case value.KindNum:
		return value.Num(math.Abs(a.AsNum())), nil
	default:
		return value.Nil(), fmt.Errorf("abs of %v", a.Kind())
	}
}

func biMinMax(isMin bool) builtinFunc {
	return func(_ *VM, _ Host, args []value.Value) (value.Value, error) {
		if len(args) < 1 {
			return value.Nil(), fmt.Errorf("want at least 1 argument")
		}
		best := args[0]
		for _, a := range args[1:] {
			cmp, ok := a.Compare(best)
			if !ok {
				return value.Nil(), fmt.Errorf("cannot compare %v with %v", a.Kind(), best.Kind())
			}
			if isMin && cmp < 0 || !isMin && cmp > 0 {
				best = a
			}
		}
		return best, nil
	}
}

func biFloor(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	if !args[0].IsNumeric() {
		return value.Nil(), fmt.Errorf("floor of %v", args[0].Kind())
	}
	return value.Num(math.Floor(args[0].AsNum())), nil
}

func biCeil(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	if !args[0].IsNumeric() {
		return value.Nil(), fmt.Errorf("ceil of %v", args[0].Kind())
	}
	return value.Num(math.Ceil(args[0].AsNum())), nil
}

func biSqrt(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	if !args[0].IsNumeric() {
		return value.Nil(), fmt.Errorf("sqrt of %v", args[0].Kind())
	}
	return value.Num(math.Sqrt(args[0].AsNum())), nil
}

func biPow(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 2); err != nil {
		return value.Nil(), err
	}
	if !args[0].IsNumeric() || !args[1].IsNumeric() {
		return value.Nil(), fmt.Errorf("pow of %v, %v", args[0].Kind(), args[1].Kind())
	}
	return value.Num(math.Pow(args[0].AsNum(), args[1].AsNum())), nil
}

func biArray(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if len(args) < 1 || len(args) > 2 {
		return value.Nil(), fmt.Errorf("want array(n) or array(n, fill)")
	}
	if !args[0].IsNumeric() {
		return value.Nil(), fmt.Errorf("array size must be numeric")
	}
	n := int(args[0].AsInt())
	if n < 0 || n > 1<<26 {
		return value.Nil(), fmt.Errorf("bad array size %d", n)
	}
	fill := value.Nil()
	if len(args) == 2 {
		fill = args[1]
	}
	elems := make([]value.Value, n)
	for i := range elems {
		elems[i] = fill.Clone()
	}
	return value.Arr(elems), nil
}

func biBytes(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	if !args[0].IsNumeric() {
		return value.Nil(), fmt.Errorf("bytes size must be numeric")
	}
	n := int(args[0].AsInt())
	if n < 0 || n > 1<<28 {
		return value.Nil(), fmt.Errorf("bad bytes size %d", n)
	}
	return value.Bytes(make([]byte, n)), nil
}

func biCopy(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	return args[0].Clone(), nil
}

func biSubstr(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 3); err != nil {
		return value.Nil(), err
	}
	if args[0].Kind() != value.KindStr || !args[1].IsNumeric() || !args[2].IsNumeric() {
		return value.Nil(), fmt.Errorf("want substr(str, start, end)")
	}
	s := args[0].AsStr()
	i, j := int(args[1].AsInt()), int(args[2].AsInt())
	if i < 0 || j > len(s) || i > j {
		return value.Nil(), fmt.Errorf("substr bounds [%d:%d] out of range for length %d", i, j, len(s))
	}
	return value.Str(s[i:j]), nil
}

func biMatrix(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 2); err != nil {
		return value.Nil(), err
	}
	if !args[0].IsNumeric() || !args[1].IsNumeric() {
		return value.Nil(), fmt.Errorf("want matrix(rows, cols)")
	}
	r, c := int(args[0].AsInt()), int(args[1].AsInt())
	if r < 0 || c < 0 || r*c > 1<<26 {
		return value.Nil(), fmt.Errorf("bad matrix size %dx%d", r, c)
	}
	return value.Matrix(value.NewMat(r, c)), nil
}

func matArg(args []value.Value) (*value.Mat, error) {
	if args[0].Kind() != value.KindMat || args[0].AsMat() == nil {
		return nil, fmt.Errorf("want a matrix, got %v", args[0].Kind())
	}
	return args[0].AsMat(), nil
}

func biRows(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	mt, err := matArg(args)
	if err != nil {
		return value.Nil(), err
	}
	return value.Int(int64(mt.Rows)), nil
}

func biCols(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return value.Nil(), err
	}
	mt, err := matArg(args)
	if err != nil {
		return value.Nil(), err
	}
	return value.Int(int64(mt.Cols)), nil
}

func biMatGet(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 3); err != nil {
		return value.Nil(), err
	}
	mt, err := matArg(args)
	if err != nil {
		return value.Nil(), err
	}
	i, j := int(args[1].AsInt()), int(args[2].AsInt())
	if i < 0 || i >= mt.Rows || j < 0 || j >= mt.Cols {
		return value.Nil(), fmt.Errorf("matget(%d, %d) out of range for %dx%d", i, j, mt.Rows, mt.Cols)
	}
	return value.Num(mt.At(i, j)), nil
}

func biMatSet(_ *VM, _ Host, args []value.Value) (value.Value, error) {
	if err := wantArgs(args, 4); err != nil {
		return value.Nil(), err
	}
	mt, err := matArg(args)
	if err != nil {
		return value.Nil(), err
	}
	i, j := int(args[1].AsInt()), int(args[2].AsInt())
	if i < 0 || i >= mt.Rows || j < 0 || j >= mt.Cols {
		return value.Nil(), fmt.Errorf("matset(%d, %d) out of range for %dx%d", i, j, mt.Rows, mt.Cols)
	}
	mt.Set(i, j, args[3].AsNum())
	return value.Nil(), nil
}

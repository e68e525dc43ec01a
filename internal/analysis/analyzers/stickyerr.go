package analyzers

import (
	"go/ast"
	"go/types"

	"messengers/internal/analysis"
)

// StickyErr enforces the wire layer's sticky-error contract, both halves.
// An Encoder swallows write errors (oversized strings, bad frames) into an
// internal sticky error, so code that extracts the encoded bytes with Bytes
// MUST consult Err (or EndFrame, which returns it) somewhere in
// the same function — otherwise truncated garbage ships as if it were a
// valid message. A Decoder answers a short or forged buffer with zeros and
// the same kind of error, so a function that makes one with NewDecoder MUST
// consult Err (or Finish, which returns it) — otherwise zeros are taken for
// what the peer sent. Handing the encoder or decoder to a call that returns
// an error passes the duty on. Suppress with //lint:stickyerr when the
// enclosing function provably cannot fail (e.g. fixed-width integers only)
// or its caller owns the check.
var StickyErr = &analysis.Analyzer{
	Name: "stickyerr",
	Doc:  "wire.Encoder bytes, or wire.Decoder reads, consumed without an Err() check",
	Run:  runStickyErr,
}

func runStickyErr(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncSticky(pass, fd, "Encoder")
			checkFuncSticky(pass, fd, "Decoder")
		}
	}
	return nil
}

// checkFuncSticky applies the rule for one of the two wire types: the
// calls that rely on the sticky error being clean (Bytes on an Encoder,
// NewDecoder for a Decoder) need a call that consults it.
func checkFuncSticky(pass *analysis.Pass, fd *ast.FuncDecl, typ string) {
	var consumes []*ast.SelectorExpr
	checked := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if typ == "Decoder" && sel.Sel.Name == "NewDecoder" && isWireType(pass, call, typ) {
			consumes = append(consumes, sel)
		}
		if !isWireType(pass, sel.X, typ) {
			return true
		}
		switch sel.Sel.Name {
		case "Bytes":
			consumes = append(consumes, sel)
		case "Err", "EndFrame", "Finish", "Fail":
			// Fail counts: the function is explicitly managing the error
			// state. EndFrame and Finish return the sticky error.
			checked = true
		}
		return true
	})
	if !checked {
		// Passing the encoder to a call that returns an error transfers
		// responsibility: the sticky error escapes through that call
		// (msg.EncodeFrame(enc) is the canonical shape).
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if isWireType(pass, arg, typ) && callReturnsError(pass, call) {
					checked = true
					return false
				}
			}
			return true
		})
	}
	if checked {
		return
	}
	for _, sel := range consumes {
		pass.Reportf(sel.Pos(), "stickyerr",
			"%s() trusts a wire.%s whose Err() the function never checks", sel.Sel.Name, typ)
	}
}

// callReturnsError reports whether the call's results include an error.
func callReturnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	isErr := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErr(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErr(t)
}

// isWireType reports whether e's type is wire's named type typ, or a
// pointer to it.
func isWireType(pass *analysis.Pass, e ast.Expr, typ string) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != typ {
		return false
	}
	return obj.Pkg().Path() == "messengers/internal/wire" || obj.Pkg().Name() == "wire"
}

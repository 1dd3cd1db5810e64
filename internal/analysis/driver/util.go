package driver

import (
	"go/ast"
	"go/types"
)

// CalleeFunc resolves the static callee of a call expression, or nil when
// the callee is dynamic (a func-typed variable, field, or parameter) or a
// builtin/conversion.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	if id == nil {
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}

// RecvNamed returns the named type of fn's receiver (through one pointer),
// or nil for plain functions.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// NamedIs reports whether named is a type called typeName declared in a
// package named pkgName.
func NamedIs(named *types.Named, pkgName, typeName string) bool {
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

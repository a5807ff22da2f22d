package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"etsqp/internal/lint"
)

// AtomicField proves the //etsqp:atomic field contracts: an annotated
// field may only be touched through sync/atomic — method calls on
// atomic.IntNN-style typed fields, or its address passed directly to a
// sync/atomic function (or to a helper whose parameter is a pointer to
// an atomic type). Plain loads, plain
// stores and escaping addresses are findings. Ranging over an array of
// atomics is allowed when only the index is bound.
var AtomicField = &lint.Analyzer{
	Name: "atomicfield",
	Doc:  "//etsqp:atomic fields are touched only through sync/atomic, never plain loads/stores",
	Run:  runAtomicField,
}

func runAtomicField(pass *lint.Pass) error {
	m := pass.Module
	atomicDirs := validateAtomicDirs(pass)
	if len(atomicDirs) == 0 {
		return nil
	}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			if inTestFile(m, file.Pos()) {
				continue
			}
			lint.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				key, ok := lint.FieldOf(pkg.Info.Selections[sel])
				if !ok || !atomicDirs[key] {
					return true
				}
				checkAtomicUse(pass, pkg, key, sel, stack)
				return true
			})
		}
	}
	return nil
}

// validateAtomicDirs reports //etsqp:atomic directives on fields whose
// type cannot be used atomically and returns the usable keys.
func validateAtomicDirs(pass *lint.Pass) map[lint.FieldKey]bool {
	m := pass.Module
	out := map[lint.FieldKey]bool{}
	for _, key := range sortedFieldKeys(m) {
		d := m.Fields[key]
		if !d.Atomic {
			continue
		}
		t := structFieldType(m, key.PkgPath, key.Type, key.Field)
		if t == nil {
			continue
		}
		if !atomicCompatible(t) {
			pass.Reportf(d.Pos, "//etsqp:atomic on %s.%s: type %s is not a sync/atomic type, an array of them, or a plain integer",
				key.Type, key.Field, t.String())
			continue
		}
		out[key] = true
	}
	return out
}

func atomicCompatible(t types.Type) bool {
	if arr, ok := t.Underlying().(*types.Array); ok {
		t = arr.Elem()
	}
	if isAtomicNamed(t) {
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsInteger != 0
	}
	return false
}

// isAtomicNamed reports whether t is a named type from sync/atomic
// (atomic.Int64, atomic.Uint64, atomic.Bool, ...).
func isAtomicNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// checkAtomicUse classifies one selector of an annotated field by its
// syntactic context and reports anything outside the allowed shapes.
func checkAtomicUse(pass *lint.Pass, pkg *lint.Package, key lint.FieldKey, sel *ast.SelectorExpr, stack []ast.Node) {
	field := key.Type + "." + key.Field
	if len(stack) > 0 {
		switch p := stack[len(stack)-1].(type) {
		case *ast.SelectorExpr:
			// c.v.Add(1): a sync/atomic method selected on the field.
			if p.X == sel && atomicMethodSel(pkg, p) {
				return
			}
		case *ast.IndexExpr:
			// h.buckets[i]...: element of an array-of-atomics field.
			if p.X == sel && len(stack) >= 2 {
				switch g := stack[len(stack)-2].(type) {
				case *ast.SelectorExpr:
					if g.X == ast.Expr(p) && atomicMethodSel(pkg, g) {
						return
					}
				case *ast.UnaryExpr:
					if g.Op == token.AND && g.X == ast.Expr(p) && len(stack) >= 3 &&
						okAtomicAddressArg(pkg, stack[len(stack)-3], g) {
						return
					}
				}
			}
		case *ast.RangeStmt:
			// for i := range h.buckets — index-only iteration.
			if p.X == sel && p.Value == nil {
				return
			}
		case *ast.UnaryExpr:
			if p.Op == token.AND && p.X == ast.Expr(sel) {
				var above ast.Node
				if len(stack) >= 2 {
					above = stack[len(stack)-2]
				}
				if okAtomicAddressArg(pkg, above, p) {
					return
				}
				pass.Reportf(sel.Pos(), "address of atomic field %s escapes (pass it only to sync/atomic operations)", field)
				return
			}
		case *ast.CallExpr:
			if isBuiltinCall(pkg, p, "len") || isBuiltinCall(pkg, p, "cap") {
				return
			}
		}
	}
	if isWritePos(sel, stack) {
		pass.Reportf(sel.Pos(), "plain write to atomic field %s (use sync/atomic)", field)
	} else {
		pass.Reportf(sel.Pos(), "plain read of atomic field %s (use sync/atomic)", field)
	}
}

// atomicMethodSel reports whether p selects a method declared in
// sync/atomic.
func atomicMethodSel(pkg *lint.Package, p *ast.SelectorExpr) bool {
	s := pkg.Info.Selections[p]
	return s != nil && s.Kind() == types.MethodVal &&
		s.Obj().Pkg() != nil && s.Obj().Pkg().Path() == "sync/atomic"
}

// okAtomicAddressArg reports whether &field (the unary) is passed
// directly as an argument to a sync/atomic function, or to a function
// whose corresponding parameter is a pointer to a sync/atomic type.
func okAtomicAddressArg(pkg *lint.Package, above ast.Node, unary *ast.UnaryExpr) bool {
	call, ok := above.(*ast.CallExpr)
	if !ok {
		return false
	}
	argIdx := -1
	for i, a := range call.Args {
		if ast.Unparen(a) == ast.Expr(unary) {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		return false
	}
	if fn := lint.CalleeFunc(pkg.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		return true
	}
	sig, ok := pkg.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return false
	}
	var paramType types.Type
	switch {
	case sig.Variadic() && argIdx >= sig.Params().Len()-1:
		if sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
			paramType = sl.Elem()
		}
	case argIdx < sig.Params().Len():
		paramType = sig.Params().At(argIdx).Type()
	}
	ptr, ok := paramType.(*types.Pointer)
	return ok && isAtomicNamed(ptr.Elem())
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(pkg *lint.Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isWritePos reports whether the selector (possibly through index or
// paren expressions) is an assignment or inc/dec target.
func isWritePos(sel ast.Expr, stack []ast.Node) bool {
	cur := ast.Expr(sel)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == cur
		case *ast.IndexExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.ParenExpr:
			cur = p
		default:
			return false
		}
	}
	return false
}

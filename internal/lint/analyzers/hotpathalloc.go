// Package analyzers holds the project-specific invariant checks that
// cmd/etsqp-lint runs over the module. Each analyzer is documented in
// docs/STATIC_ANALYSIS.md together with the //etsqp: annotations that
// configure it.
package analyzers

import (
	"go/ast"
	"go/types"

	"etsqp/internal/lint"
)

// All is the analyzer suite cmd/etsqp-lint runs: the source analyzers
// and the three compiler contracts (contracts.go).
var All = []*lint.Analyzer{AtomicField, BoundsContract, GuardedBy, HotPathAlloc, Inline, LockOrder, NoBCE, NoEscape, NoPanic, ObsGuard, QueryDoc, RangeCheck, SharedWrite}

// HotPathAlloc enforces that functions annotated //etsqp:hotpath — and
// every module function they statically call — contain no allocating
// constructs: make, append (growth may allocate), closures, fmt calls and
// implicit conversions of concrete values to interfaces (which box).
// Functions annotated //etsqp:coldpath (cached, amortized setup such as
// plan construction) stop the traversal.
//
// A stray allocation in an unpacking kernel erases the vectorization win
// (Lemire & Boytsov); the AllocsPerRun tests in internal/pipeline and
// internal/fusion cross-check this analyzer at runtime.
var HotPathAlloc = &lint.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocating constructs reachable from //etsqp:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *lint.Pass) error {
	m := pass.Module
	var roots []string
	for key, fi := range m.Funcs {
		if fi.Annotated("hotpath") {
			roots = append(roots, key)
		}
	}
	for _, fi := range m.Closure(roots, "coldpath") {
		checkHotFunc(pass, fi)
	}
	return nil
}

func checkHotFunc(pass *lint.Pass, fi *lint.FuncInfo) {
	if fi.Decl.Body == nil {
		return
	}
	info := fi.Pkg.Info
	name := fi.Obj.Name()
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hot path %s contains a closure (allocates)", name)
			return false // the closure body is not part of this hot path
		case *ast.CallExpr:
			checkHotCall(pass, info, name, n)
		}
		return true
	})
}

func checkHotCall(pass *lint.Pass, info *types.Info, name string, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Builtins and conversions.
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(), "hot path %s calls make (allocates)", name)
				return
			case "append":
				pass.Reportf(call.Pos(), "hot path %s calls append (growth allocates)", name)
				return
			}
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		// Explicit conversion: T(x). Converting to an interface boxes.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && !isInterfaceOrNil(info, call.Args[0]) {
			pass.Reportf(call.Pos(), "hot path %s converts concrete value to interface (allocates)", name)
		}
		return
	}
	if fn := lint.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hot path %s calls fmt.%s (allocates)", name, fn.Name())
		return
	}
	// Implicit interface conversions at call arguments.
	sig, ok := typeAsSignature(info, fun)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && !isInterfaceOrNil(info, arg) {
			pass.Reportf(arg.Pos(), "hot path %s passes concrete value as interface argument (allocates)", name)
		}
	}
}

// typeAsSignature returns the call signature of an expression, following
// method selections.
func typeAsSignature(info *types.Info, fun ast.Expr) (*types.Signature, bool) {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

// isInterfaceOrNil reports whether an expression is already
// interface-typed (no boxing on assignment) or the untyped nil.
func isInterfaceOrNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return true // be conservative: don't flag what we can't type
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	return types.IsInterface(tv.Type)
}

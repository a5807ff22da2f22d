package analyzers

import (
	"go/ast"
	"go/types"

	"etsqp/internal/lint"
)

// BoundsContract turns //etsqp:bounds parameter directives into
// module-wide checked contracts: at every call site of a bounds-annotated
// function, anywhere in the module, the rangeflow.go interval lattice
// (walked by flow.go) must be able to show each annotated argument's
// interval fits the declared parameter range. Encoding invariants — page
// row caps, bit widths, run lengths — thereby hold by construction at
// every producer,
// and the //etsqp:rangecheck kernels consuming them may assume the
// declared intervals without re-validating.
//
// Directive syntax and misannotation problems are reported by rangecheck
// alone, so running both analyzers never duplicates a finding. Variadic
// tails and arguments whose type is not integer are skipped.
var BoundsContract = &lint.Analyzer{
	Name: "boundscontract",
	Doc:  "call sites satisfy callees' declared //etsqp:bounds parameter intervals",
	Run:  runBoundsContract,
}

func runBoundsContract(pass *lint.Pass) error {
	m := pass.Module
	bounds := buildBoundsIndex(m)
	// Parameter-name → argument-index tables for every annotated callee.
	argIndex := map[string]map[string]int{}
	for key, fb := range bounds.funcs {
		if len(fb.params) == 0 {
			continue
		}
		fi, ok := m.Funcs[key]
		if !ok || fi.Decl.Type.Params == nil {
			continue
		}
		idx := map[string]int{}
		i := 0
		for _, field := range fi.Decl.Type.Params.List {
			for _, id := range field.Names {
				idx[id.Name] = i
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
		argIndex[key] = idx
	}
	for _, fi := range sortedFuncs(m) {
		if fi.Decl.Body == nil || inTestFile(m, fi.Decl.Pos()) {
			continue
		}
		caller := fi
		hooks := rangeHooks{
			call: func(call *ast.CallExpr, argIval func(i int) *ival) {
				checkCallContract(pass, m, bounds, argIndex, caller, call, argIval)
			},
		}
		walkRangeFunc(fi, bounds, hooks)
	}
	return nil
}

func checkCallContract(pass *lint.Pass, m *lint.Module, bounds *boundsIndex, argIndex map[string]map[string]int, caller *lint.FuncInfo, call *ast.CallExpr, argIval func(i int) *ival) {
	fn := lint.CalleeFunc(caller.Pkg.Info, call)
	if fn == nil {
		return
	}
	key := fn.FullName()
	fb, ok := bounds.funcs[key]
	if !ok || len(fb.params) == 0 {
		return
	}
	idx, ok := argIndex[key]
	if !ok {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	for _, name := range sortedBoundNames(fb.params) {
		d := fb.params[name]
		if d.err != "" {
			continue
		}
		i, ok := idx[name]
		if !ok || i >= len(call.Args) {
			continue
		}
		if sig != nil && sig.Variadic() && i >= sig.Params().Len()-1 {
			continue // variadic tail: per-element contracts not modeled
		}
		got := argIval(i)
		if got == nil || got.subsetOf(d.iv) {
			continue
		}
		pass.Reportf(call.Args[i].Pos(), "argument %q to %s has interval %s, outside declared //etsqp:bounds %s %s",
			name, fn.Name(), got, name, d.iv)
	}
}

package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"etsqp/internal/lint"
)

// RangeCheck enforces the Section VI-C checked-arithmetic discipline
// inside functions annotated //etsqp:rangecheck: every raw + - * << (and
// the one overflowing / case, MinInt64 / -1) whose static type is int64
// and whose exact result interval — computed by the rangeflow.go interval
// lattice over the shared walker in flow.go, from //etsqp:bounds
// directives, constants, branch guards and loop fixpoints — can leave
// int64 must instead flow through an //etsqp:checked helper
// (encoding.AddChecked, fusion.mulChecked, ...) or have its operands
// provably bounded. Declared //etsqp:bounds return
// intervals are verified against the computed return-value intervals,
// the ok result of a checked helper must not be discarded, and
// malformed or misannotated directives are findings.
//
// Plain `int` index arithmetic is deliberately out of scope: indices are
// policed dynamically by slice bounds checks and statically by the
// //etsqp:nobce budget of the nobce analyzer; int64 is the aggregate-value
// domain where a wrap is a silent wrong answer, not a panic.
var RangeCheck = &lint.Analyzer{
	Name: "rangecheck",
	Doc:  "int64 arithmetic in //etsqp:rangecheck kernels is checked or provably in range",
	Run:  runRangeCheck,
}

func runRangeCheck(pass *lint.Pass) error {
	m := pass.Module
	bounds := buildBoundsIndex(m)
	reportDirectiveErrors(pass, m, bounds)
	for _, fi := range sortedFuncs(m) {
		if !fi.Annotated("rangecheck") || fi.Annotated("checked") {
			continue
		}
		if fi.Decl.Body == nil || inTestFile(m, fi.Decl.Pos()) {
			continue
		}
		checkRangeFunc(pass, m, fi, bounds)
	}
	return nil
}

func checkRangeFunc(pass *lint.Pass, m *lint.Module, fi *lint.FuncInfo, bounds *boundsIndex) {
	fb := bounds.funcs[fi.Key]
	hooks := rangeHooks{
		rawOp: func(pos token.Pos, op token.Token, desc string, exact *ival, t types.Type) {
			if !isInt64Type(t) || exact.subsetOf(int64Range) {
				return
			}
			pass.Reportf(pos, "%s: unchecked int64 %s with result interval %s can overflow; use an //etsqp:checked helper or tighten the operands' //etsqp:bounds",
				fi.Obj.Name(), opWord(op), exact)
		},
		blankOK: func(pos token.Pos, callee string) {
			pass.Reportf(pos, "%s: ok result of checked helper %s discarded; the overflow flag must be observed", fi.Obj.Name(), callee)
		},
	}
	if fb != nil && fb.ret != nil && fb.ret.err == "" {
		ret := fb.ret
		hooks.ret = func(rs *ast.ReturnStmt, results []*ival) {
			if len(results) == 0 || results[0] == nil {
				return
			}
			if !results[0].subsetOf(ret.iv) {
				pass.Reportf(rs.Pos(), "%s: return value interval %s exceeds declared //etsqp:bounds return %s",
					fi.Obj.Name(), results[0], ret.iv)
			}
		}
	}
	walkRangeFunc(fi, bounds, hooks)
}

func opWord(op token.Token) string {
	switch op {
	case token.ADD:
		return "addition"
	case token.SUB:
		return "subtraction"
	case token.MUL:
		return "multiplication"
	case token.QUO:
		return "division"
	case token.SHL:
		return "shift"
	}
	return op.String()
}

// reportDirectiveErrors validates the module's //etsqp:bounds and
// //etsqp:checked directives. Only rangecheck reports these, so running
// both analyzers does not duplicate findings.
func reportDirectiveErrors(pass *lint.Pass, m *lint.Module, bounds *boundsIndex) {
	for _, fi := range sortedFuncs(m) {
		fb := bounds.funcs[fi.Key]
		if fb != nil {
			for _, bad := range fb.bad {
				pass.Reportf(fi.Decl.Pos(), "%s: malformed //etsqp:bounds directive %q: %s", fi.Obj.Name(), bad.raw, bad.err)
			}
			validateFuncBounds(pass, fi, fb)
		}
		if kind, ok := bounds.checked[fi.Key]; ok {
			validateChecked(pass, fi, kind)
		}
	}
	for _, key := range sortedFieldKeys(m) {
		d, ok := bounds.fields[key]
		if !ok {
			continue
		}
		if d.err != "" {
			pass.Reportf(d.pos, "field %s.%s: malformed //etsqp:bounds directive %q: %s", key.Type, key.Field, d.raw, d.err)
			continue
		}
		ft := structFieldType(m, key.PkgPath, key.Type, key.Field)
		tr := typeIval(ft)
		if tr == nil {
			pass.Reportf(d.pos, "field %s.%s: //etsqp:bounds on non-integer field", key.Type, key.Field)
			continue
		}
		if !d.iv.subsetOf(tr) {
			pass.Reportf(d.pos, "field %s.%s: declared //etsqp:bounds %s exceeds the field's type range %s", key.Type, key.Field, d.iv, tr)
		}
	}
}

// validateFuncBounds checks that parameter bounds name real integer
// parameters within their type ranges and that a return bound has an
// integer first result to describe.
func validateFuncBounds(pass *lint.Pass, fi *lint.FuncInfo, fb *funcBounds) {
	params := map[string]types.Type{}
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			for _, id := range field.Names {
				params[id.Name] = fi.Pkg.Info.TypeOf(field.Type)
			}
		}
	}
	pos := fi.Decl.Pos()
	for _, name := range sortedBoundNames(fb.params) {
		d := fb.params[name]
		t, ok := params[name]
		if !ok {
			pass.Reportf(pos, "%s: //etsqp:bounds names unknown parameter %q", fi.Obj.Name(), name)
			continue
		}
		tr := typeIval(t)
		if tr == nil {
			pass.Reportf(pos, "%s: //etsqp:bounds on non-integer parameter %q", fi.Obj.Name(), name)
			continue
		}
		if !d.iv.subsetOf(tr) {
			pass.Reportf(pos, "%s: declared //etsqp:bounds for %q %s exceeds the parameter's type range %s", fi.Obj.Name(), name, d.iv, tr)
		}
	}
	if fb.ret != nil && fb.ret.err == "" {
		res := fi.Decl.Type.Results
		if res == nil || len(res.List) == 0 || typeIval(fi.Pkg.Info.TypeOf(res.List[0].Type)) == nil {
			pass.Reportf(pos, "%s: //etsqp:bounds return requires an integer first result", fi.Obj.Name())
		}
	}
}

// validateChecked checks an //etsqp:checked helper's shape: results
// (integer, ..., bool), and for the "add"/"mul" exact models exactly
// two integer parameters.
func validateChecked(pass *lint.Pass, fi *lint.FuncInfo, kind string) {
	pos := fi.Decl.Pos()
	if kind != "" && kind != "add" && kind != "mul" {
		pass.Reportf(pos, "%s: //etsqp:checked argument must be \"add\" or \"mul\", got %q", fi.Obj.Name(), kind)
		return
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return
	}
	res := sig.Results()
	okShape := res.Len() >= 2 && typeIval(res.At(0).Type()) != nil && isBoolType(res.At(res.Len()-1).Type())
	if !okShape {
		pass.Reportf(pos, "%s: //etsqp:checked helper must return (integer, ..., bool)", fi.Obj.Name())
		return
	}
	if kind == "add" || kind == "mul" {
		ps := sig.Params()
		if ps.Len() != 2 || typeIval(ps.At(0).Type()) == nil || typeIval(ps.At(1).Type()) == nil {
			pass.Reportf(pos, "%s: //etsqp:checked %s helper must take exactly two integer parameters", fi.Obj.Name(), kind)
		}
	}
}

func isBoolType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

func sortedBoundNames(decls map[string]*boundDecl) []string {
	names := make([]string, 0, len(decls))
	for n := range decls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

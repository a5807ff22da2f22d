package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"etsqp/internal/lint"
)

// maxPlanWidth is the widest packing width the plan tables support; it
// mirrors the [33]*Plan cache in internal/pipeline.
const maxPlanWidth = 32

// PlanTable checks the static side of the JIT plan-table contract:
//
//  1. Constant width arguments to PlanFor must lie in the
//     table range [0, 32]. Calls that capture the returned error are
//     exempt — they are deliberately exercising the validation path.
//  2. Counted loops (for i := 0; i < K; i++) whose index flows into a
//     fixed-size array — the simd lane vectors and gather index tables —
//     must not run past the array length. This catches a 16-lane bound
//     applied to an 8-lane vector, which Go's compiler cannot reject
//     because the index is a variable.
//
// The dynamic side — that every width in 1..64 builds internally
// consistent tables or is rejected — is pipeline.(*Plan).Check, run
// exhaustively by TestPlanTableInvariants.
var PlanTable = &lint.Analyzer{
	Name: "plantable",
	Doc:  "plan-table widths in range and lane loops within vector bounds",
	Run:  runPlanTable,
}

func runPlanTable(pass *lint.Pass) error {
	for _, pkg := range pass.Module.Pkgs {
		for _, file := range pkg.Files {
			checkPlanWidths(pass, pkg, file)
			checkLaneLoops(pass, pkg, file)
		}
	}
	return nil
}

// checkPlanWidths flags constant out-of-range widths at plan lookups.
func checkPlanWidths(pass *lint.Pass, pkg *lint.Package, file *ast.File) {
	lint.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lint.CalleeFunc(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
			return true
		}
		if fn.Name() != "PlanFor" {
			return true
		}
		if !lint.PathHasSuffix(fn.Pkg().Path(), "pipeline") {
			return true
		}
		w, ok := constIntValue(pkg.Info, call.Args[0])
		if !ok || (w >= 0 && w <= maxPlanWidth) {
			return true
		}
		if errCaptured(stack, call) {
			return true // deliberately testing the width validation
		}
		pass.Reportf(call.Args[0].Pos(), "constant width %d is outside the plan table range [0, %d]", w, maxPlanWidth)
		return true
	})
}

// errCaptured reports whether the call's error result is captured by the
// enclosing statement (p, err := PlanFor(w)).
func errCaptured(stack []ast.Node, call *ast.CallExpr) bool {
	if len(stack) == 0 {
		return false
	}
	assign, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 || assign.Rhs[0] != call || len(assign.Lhs) != 2 {
		return false
	}
	id, ok := assign.Lhs[1].(*ast.Ident)
	return ok && id.Name != "_"
}

// checkLaneLoops flags counted loops indexing a fixed-size array past its
// length.
func checkLaneLoops(pass *lint.Pass, pkg *lint.Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond == nil || loop.Body == nil {
			return true
		}
		idx, bound, ok := countedLoop(pkg.Info, loop)
		if !ok {
			return true
		}
		ast.Inspect(loop.Body, func(n ast.Node) bool {
			ie, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			id, ok := ie.Index.(*ast.Ident)
			if !ok || pkg.Info.Uses[id] != idx {
				return true
			}
			alen, ok := arrayLen(pkg.Info, ie.X)
			if !ok || bound <= alen {
				return true
			}
			pass.Reportf(ie.Pos(), "loop bound %d exceeds array length %d", bound, alen)
			return true
		})
		return true
	})
}

// countedLoop matches `for i := 0; i < K; i++` (or <=) with K a constant,
// returning the index object and the exclusive upper bound.
func countedLoop(info *types.Info, loop *ast.ForStmt) (idx types.Object, bound int64, ok bool) {
	init, ok := loop.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 {
		return nil, 0, false
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, 0, false
	}
	obj := info.Defs[id]
	if obj == nil {
		return nil, 0, false
	}
	start, ok := constIntValue(info, init.Rhs[0])
	if !ok || start != 0 {
		return nil, 0, false
	}
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return nil, 0, false
	}
	condID, ok := cond.X.(*ast.Ident)
	if !ok || info.Uses[condID] != obj {
		return nil, 0, false
	}
	k, ok := constIntValue(info, cond.Y)
	if !ok {
		return nil, 0, false
	}
	if cond.Op == token.LEQ {
		k++
	}
	return obj, k, true
}

// arrayLen returns the length of e's array type, following pointers to
// arrays (which index implicitly in Go).
func arrayLen(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return 0, false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	if a, ok := t.(*types.Array); ok {
		return a.Len(), true
	}
	return 0, false
}

// constIntValue constant-folds e to an int64 if possible.
func constIntValue(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

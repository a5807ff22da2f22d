package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"etsqp/internal/lint"
)

// SharedWrite proves the Section III-C fan-out pattern write-disjoint:
// a goroutine spawned in a loop may write only to per-worker slots — a
// slice/array element indexed by the spawn loop variable (directly, with
// go 1.22 per-iteration semantics, or passed as a parameter) — and never
// to a plain shared variable. Reads of the slot-written results in the
// spawning function must come after a sync.WaitGroup Wait call.
//
// Channel sends are always allowed (they synchronize), and mutating
// shared state through method calls is not flagged, so goroutine-local
// state merged under a mutex (lock, global.merge(local), unlock) is the
// alternative to slot writes. The aggregate executor needs neither:
// executeAgg's pool workers fold into per-slot partials, which it merges
// sequentially after RunWith returns.
var SharedWrite = &lint.Analyzer{
	Name: "sharedwrite",
	Doc:  "goroutines spawned in loops write only disjoint per-worker slots",
	Run:  runSharedWrite,
}

func runSharedWrite(pass *lint.Pass) error {
	for _, pkg := range pass.Module.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkFanOuts(pass, pkg.Info, fd)
				}
			}
		}
	}
	return nil
}

// checkFanOuts analyzes every goroutine the function spawns from inside
// a loop.
func checkFanOuts(pass *lint.Pass, info *types.Info, fd *ast.FuncDecl) {
	lint.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		loopVars, loop := enclosingLoops(info, stack)
		if loop == nil {
			return true // a single goroutine cannot race with a sibling
		}
		sw := &spawnCheck{pass: pass, info: info, fd: fd, gs: gs, lit: lit, loopVars: loopVars}
		sw.checkBody()
		sw.checkWaitDomination(loop)
		return true
	})
}

// enclosingLoops collects the iteration variables of every for/range
// statement on the ancestor stack and returns the innermost loop.
func enclosingLoops(info *types.Info, stack []ast.Node) (map[types.Object]bool, ast.Stmt) {
	vars := map[types.Object]bool{}
	var innermost ast.Stmt
	for _, n := range stack {
		switch s := n.(type) {
		case *ast.RangeStmt:
			innermost = s
			if s.Tok == token.DEFINE {
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if id, ok := e.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							vars[obj] = true
						}
					}
				}
			}
		case *ast.ForStmt:
			innermost = s
			if init, ok := s.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, e := range init.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							vars[obj] = true
						}
					}
				}
			}
		}
	}
	return vars, innermost
}

// spawnCheck verifies one go-func-in-a-loop site.
type spawnCheck struct {
	pass     *lint.Pass
	info     *types.Info
	fd       *ast.FuncDecl
	gs       *ast.GoStmt
	lit      *ast.FuncLit
	loopVars map[types.Object]bool

	// slotVars are the free variables that received accepted per-worker
	// slot writes; their post-loop reads need wg.Wait() domination.
	slotVars map[types.Object]bool
}

func (s *spawnCheck) checkBody() {
	s.slotVars = map[types.Object]bool{}
	ast.Inspect(s.lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				s.checkWrite(lhs, "writes")
			}
		case *ast.IncDecStmt:
			s.checkWrite(n.X, "writes")
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := s.info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					s.checkWrite(n.Args[0], "copies into")
				}
			}
		}
		return true
	})
}

// checkWrite validates one written expression: peel selectors, derefs and
// indexes down to the base identifier; a free base is only legal when one
// of the peeled indexes is a per-worker slot index.
func (s *spawnCheck) checkWrite(e ast.Expr, verb string) {
	var indexes []ast.Expr
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			indexes = append(indexes, x.Index)
			e = x.X
		case *ast.SliceExpr:
			// A window into a shared slice is only disjoint when its low
			// bound is a per-worker slot index; a nil low bound (x[:n])
			// can never be.
			indexes = append(indexes, x.Low)
			e = x.X
		default:
			base, ok := e.(*ast.Ident)
			if !ok || base.Name == "_" {
				return
			}
			obj, isVar := s.info.ObjectOf(base).(*types.Var)
			if !isVar || s.declaredInside(obj) {
				return
			}
			s.checkSharedWrite(base, obj, indexes, verb)
			return
		}
	}
}

// checkSharedWrite handles a write whose base variable is captured from
// the spawning function.
func (s *spawnCheck) checkSharedWrite(base *ast.Ident, obj *types.Var, indexes []ast.Expr, verb string) {
	name := s.fd.Name.Name
	if len(indexes) == 0 {
		s.pass.Reportf(base.Pos(),
			"goroutine in %s %s shared variable %s; use a per-worker slot, a channel, or the mutex-guarded merge pattern",
			name, verb, obj.Name())
		return
	}
	for _, idx := range indexes {
		if s.isSlotIndex(idx) {
			s.slotVars[obj] = true
			return
		}
	}
	s.pass.Reportf(base.Pos(),
		"goroutine in %s %s %s through an index that is not the spawn loop variable (slots may overlap across workers)",
		name, verb, obj.Name())
}

// isSlotIndex reports whether an index expression identifies a disjoint
// per-worker slot: the spawn loop variable itself (per-iteration since go
// 1.22), a parameter of the literal whose call argument is the loop
// variable, or an index the goroutine claimed from a shared atomic
// counter (the morsel ownership pattern of internal/exec's claim
// counter: each Add return value is handed to exactly one
// goroutine, so claimed indices never overlap).
func (s *spawnCheck) isSlotIndex(idx ast.Expr) bool {
	if idx == nil {
		return false
	}
	id, ok := ast.Unparen(idx).(*ast.Ident)
	if !ok {
		return false
	}
	obj := s.info.ObjectOf(id)
	if obj == nil {
		return false
	}
	if s.loopVars[obj] {
		return true
	}
	if s.isClaimedIndex(obj) {
		return true
	}
	argIdx, isParam := s.paramIndex(obj)
	if !isParam || argIdx >= len(s.gs.Call.Args) {
		return false
	}
	arg, ok := ast.Unparen(s.gs.Call.Args[argIdx]).(*ast.Ident)
	return ok && s.loopVars[s.info.ObjectOf(arg)]
}

// isClaimedIndex reports whether the index variable is declared inside
// the goroutine literal by a := whose right-hand side derives from an
// Add call on a sync/atomic counter captured from the spawning function.
// A shared counter hands every Add return value to exactly one claimant,
// so such indices are disjoint across the spawned goroutines. A counter
// declared inside the literal is per-goroutine and proves nothing.
func (s *spawnCheck) isClaimedIndex(obj types.Object) bool {
	if !s.declaredInside(obj) {
		return false
	}
	claimed := false
	ast.Inspect(s.lit.Body, func(n ast.Node) bool {
		if claimed {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || s.info.ObjectOf(id) != obj {
				continue
			}
			for _, rhs := range as.Rhs {
				if s.containsSharedAtomicAdd(rhs) {
					claimed = true
				}
			}
		}
		return !claimed
	})
	return claimed
}

// containsSharedAtomicAdd reports whether the expression contains an
// Add call on a sync/atomic value whose base variable is captured from
// outside the goroutine literal.
func (s *spawnCheck) containsSharedAtomicAdd(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		tv, ok := s.info.Types[sel.X]
		if !ok || tv.Type == nil {
			return true
		}
		t := tv.Type
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return true
		}
		if o := named.Obj(); o.Pkg() == nil || o.Pkg().Path() != "sync/atomic" {
			return true
		}
		// Peel to the counter's base variable: it must be shared
		// (captured), not a fresh per-goroutine counter.
		base := ast.Unparen(sel.X)
		for {
			switch x := base.(type) {
			case *ast.ParenExpr:
				base = x.X
			case *ast.SelectorExpr:
				base = x.X
			case *ast.StarExpr:
				base = x.X
			case *ast.IndexExpr:
				base = x.X
			case *ast.UnaryExpr:
				base = x.X
			default:
				if id, ok := base.(*ast.Ident); ok {
					if bobj := s.info.ObjectOf(id); bobj != nil && !s.declaredInside(bobj) {
						found = true
					}
				}
				return !found
			}
		}
	})
	return found
}

// paramIndex returns the positional index of obj in the literal's
// parameter list.
func (s *spawnCheck) paramIndex(obj types.Object) (int, bool) {
	i := 0
	for _, field := range s.lit.Type.Params.List {
		for _, name := range field.Names {
			if s.info.ObjectOf(name) == obj {
				return i, true
			}
			i++
		}
	}
	return 0, false
}

func (s *spawnCheck) declaredInside(obj types.Object) bool {
	return s.lit.Pos() <= obj.Pos() && obj.Pos() < s.lit.End()
}

// checkWaitDomination requires every post-loop read of a slot-written
// variable to come after a sync.WaitGroup Wait call that itself follows
// the spawning loop.
func (s *spawnCheck) checkWaitDomination(loop ast.Stmt) {
	if len(s.slotVars) == 0 {
		return
	}
	waitPos := token.Pos(-1)
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && call.Pos() > loop.End() && s.isWaitGroupWait(call) {
			if waitPos < 0 || call.Pos() < waitPos {
				waitPos = call.Pos()
			}
		}
		return true
	})
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= loop.End() {
			return true
		}
		obj := s.info.ObjectOf(id)
		if obj == nil || !s.slotVars[obj] {
			return true
		}
		if waitPos < 0 {
			s.pass.Reportf(id.Pos(),
				"per-worker slots of %s in %s are read without a wg.Wait() after the spawn loop",
				obj.Name(), s.fd.Name.Name)
		} else if id.Pos() < waitPos {
			s.pass.Reportf(id.Pos(),
				"%s in %s is read before wg.Wait(); worker writes may still be in flight",
				obj.Name(), s.fd.Name.Name)
		}
		return false
	})
}

// isWaitGroupWait reports whether the call is sync.WaitGroup.Wait.
func (s *spawnCheck) isWaitGroupWait(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	tv, ok := s.info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" && o.Name() == "WaitGroup"
}

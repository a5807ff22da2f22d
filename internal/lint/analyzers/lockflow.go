package analyzers

// Lock-set dataflow shared by the guardedby and lockorder analyzers: an
// intra-procedural abstract interpretation that tracks, at every
// program point, which sync.Mutex/RWMutex receiver paths are held and
// at what strength (read vs write). Control flow — branch joins, the
// loop fixpoint, labels, fallthrough, escaped literals — is the shared
// walker's (flow.go); this file is the lattice and the transfer
// functions.
//
// The abstraction is deliberately simple and strict:
//
//   - A lock is identified by the printed path of its receiver
//     expression ("s.mu", "c.mu", "planMu"), so aliasing through local
//     copies is invisible; annotated protocols must lock through the
//     same path they access guarded state through.
//   - Where paths meet, a lock counts as held only when it is held on
//     every path, at the weaker of its strengths. So a workerLoop-style
//     "unlock in the middle, relock before looping" body is proven, and
//     a path that leaks a lock out of an iteration is not.
//   - defer mu.Unlock() is modeled as "held until function exit" (no
//     transition); deferred and go'd function literals are scanned
//     separately with an empty lock set, since they run at another time
//     (or on another goroutine) with no inherited locks. Immediately
//     invoked literals are interpreted inline with the current set.
//   - sync.Cond.Wait needs no special case: it atomically re-acquires
//     its mutex before returning, so "held before, held after" — the
//     net effect of not modeling a transition — is exact.
//
// Not modeled (kept out of the annotated protocols instead): mutexes
// embedded into structs (promoted Lock calls), locks reached through
// local pointer copies, and cross-struct guards (a field guarded by
// another struct's mutex); such fields stay unannotated with a comment.

import (
	"go/ast"
	"go/types"

	"etsqp/internal/lint"
)

// lockStrength orders lock modes: a write lock satisfies a read
// requirement, not vice versa.
type lockStrength int

const (
	lockRead  lockStrength = iota + 1 // RLock held
	lockWrite                         // Lock held
)

// lockInfo is the abstract state of one held lock.
type lockInfo struct {
	strength lockStrength
	class    string // declaration identity, e.g. "etsqp/internal/storage.Series.mu"
}

// lockSet maps receiver path ("s.mu") to the held lock's state.
type lockSet map[string]lockInfo

// mutexOp is one Lock/RLock/Unlock/RUnlock call on a sync mutex.
type mutexOp struct {
	call     *ast.CallExpr
	path     string // receiver path, e.g. "s.mu"
	class    string // declaration identity, "" when unresolvable
	acquire  bool
	strength lockStrength // valid when acquire
}

// lockHooks are the dataflow events an analyzer observes. Hooks only
// fire during reporting passes, never during silent fixpoint passes.
type lockHooks struct {
	// access fires for every selector-expression evaluation, with the
	// lock set at that point; write marks assignment targets.
	access func(sel *ast.SelectorExpr, set lockSet, write bool)
	// acquire fires when a mutex acquisition executes, with the set held
	// before the acquisition takes effect.
	acquire func(op *mutexOp, held lockSet)
	// call fires for every ordinary (non-mutex, non-literal) call.
	call func(call *ast.CallExpr, set lockSet)
	// enterClosure fires once before the escaped function literals
	// (deferred, go'd, or passed as values) are scanned with empty sets.
	enterClosure func()
}

type lockFlow struct {
	*flow[lockInfo]
	pkg   *lint.Package
	hooks lockHooks
}

// walkLockFunc interprets one function body from the given seed set
// (non-nil for //etsqp:locked functions), then scans every escaped
// function literal with an empty set.
func walkLockFunc(pkg *lint.Package, fd *ast.FuncDecl, seed lockSet, hooks lockHooks) {
	if fd.Body == nil {
		return
	}
	f := &lockFlow{pkg: pkg, hooks: hooks}
	f.flow = &flow[lockInfo]{lat: f}
	entered := false
	f.run(fd.Body, cloneState(seed), func(*ast.FuncLit) map[string]lockInfo {
		if !entered && hooks.enterClosure != nil {
			hooks.enterClosure()
		}
		entered = true
		return lockSet{}
	})
}

// ---- the lattice ----

// join keeps a lock held on both paths at the weaker strength.
func (*lockFlow) join(a, b lockInfo) lockInfo {
	if b.strength < a.strength {
		return b
	}
	return a
}

func (*lockFlow) equal(a, b lockInfo) bool { return a == b }

// widen is the identity: a loop can only drop or weaken locks, so the
// entry set reaches its fixpoint without help.
func (*lockFlow) widen(_, next lockInfo) lockInfo { return next }

// cond and tagCase narrow nothing: no lock is taken by a comparison.
func (*lockFlow) cond(ast.Expr, bool) bool { return true }

func (*lockFlow) tagCase(_, _ ast.Expr) bool { return true }

func (f *lockFlow) rangeVars(s *ast.RangeStmt) {
	f.writeExpr(s.Key)
	f.writeExpr(s.Value)
}

// ---- statements ----

func (f *lockFlow) leaf(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		f.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			f.expr(r)
		}
		for _, l := range s.Lhs {
			f.writeExpr(l)
		}
	case *ast.IncDecStmt:
		f.expr(s.X)
		f.writeExpr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						f.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		f.expr(s.Chan)
		f.expr(s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.expr(r)
		}
	case *ast.DeferStmt:
		f.later(s.Call)
	case *ast.GoStmt:
		f.later(s.Call)
	}
}

// later evaluates a deferred or go'd call's operands now; the call runs
// at another time. A mutex operation there causes no transition: defer
// mu.Unlock() means the lock stays held to function exit, exactly what
// no-op models. A called literal escapes.
func (f *lockFlow) later(c *ast.CallExpr) {
	for _, a := range c.Args {
		f.expr(a)
	}
	if f.mutexOp(c) != nil {
		return
	}
	if lit, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
		f.enqueue(lit)
		return
	}
	f.expr(c.Fun)
}

// ---- expressions ----

func (f *lockFlow) expr(e ast.Expr) {
	if f.terminated || e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		f.call(e)
	case *ast.FuncLit:
		f.enqueue(e)
	case *ast.SelectorExpr:
		f.expr(e.X)
		f.fieldAccess(e, false)
	case *ast.ParenExpr:
		f.expr(e.X)
	case *ast.StarExpr:
		f.expr(e.X)
	case *ast.UnaryExpr:
		f.expr(e.X)
	case *ast.BinaryExpr:
		f.expr(e.X)
		f.expr(e.Y)
	case *ast.IndexExpr:
		f.expr(e.X)
		f.expr(e.Index)
	case *ast.IndexListExpr:
		f.expr(e.X)
		for _, ix := range e.Indices {
			f.expr(ix)
		}
	case *ast.SliceExpr:
		f.expr(e.X)
		f.expr(e.Low)
		f.expr(e.High)
		f.expr(e.Max)
	case *ast.TypeAssertExpr:
		f.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			f.expr(el)
		}
	case *ast.KeyValueExpr:
		f.expr(e.Key)
		f.expr(e.Value)
	}
}

// writeExpr processes an assignment target: the base selector is an
// annotated-field write; inner index/pointer expressions are reads.
func (f *lockFlow) writeExpr(e ast.Expr) {
	if f.terminated || e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		f.expr(e.X)
		f.fieldAccess(e, true)
	case *ast.IndexExpr:
		f.writeExpr(e.X)
		f.expr(e.Index)
	case *ast.SliceExpr:
		f.writeExpr(e.X)
		f.expr(e.Low)
		f.expr(e.High)
		f.expr(e.Max)
	case *ast.ParenExpr:
		f.writeExpr(e.X)
	case *ast.StarExpr:
		f.expr(e.X) // write through the pointee, field itself only read
	case *ast.Ident:
	default:
		f.expr(e)
	}
}

func (f *lockFlow) fieldAccess(sel *ast.SelectorExpr, write bool) {
	if !f.silent && f.hooks.access != nil {
		f.hooks.access(sel, f.state, write)
	}
}

func (f *lockFlow) call(c *ast.CallExpr) {
	for _, a := range c.Args {
		f.expr(a)
	}
	if op := f.mutexOp(c); op != nil {
		if op.acquire {
			if !f.silent && f.hooks.acquire != nil {
				f.hooks.acquire(op, f.state)
			}
			f.state[op.path] = lockInfo{strength: op.strength, class: op.class}
		} else {
			delete(f.state, op.path)
		}
		return
	}
	if lit, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
		f.inline(lit.Body) // immediately invoked: runs now, under the current set
		return
	}
	builtin := false
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if b, ok := f.pkg.Info.Uses[id].(*types.Builtin); ok {
			builtin = true
			// delete(guardedMap, k) and copy(guarded, src) write through
			// their first argument.
			if (b.Name() == "delete" || b.Name() == "copy") && len(c.Args) == 2 {
				f.writeExpr(c.Args[0])
			}
		}
	}
	if !builtin {
		f.expr(c.Fun)
	}
	if isTerminator(f.pkg.Info, c) {
		f.terminated = true
		return
	}
	if !builtin && !f.silent && f.hooks.call != nil {
		f.hooks.call(c, f.state)
	}
}

// mutexOp recognizes Lock/RLock/Unlock/RUnlock calls on a
// sync.Mutex/RWMutex-typed receiver expression.
func (f *lockFlow) mutexOp(c *ast.CallExpr) *mutexOp {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var acquire bool
	var strength lockStrength
	switch sel.Sel.Name {
	case "Lock":
		acquire, strength = true, lockWrite
	case "RLock":
		acquire, strength = true, lockRead
	case "Unlock", "RUnlock":
	default:
		return nil
	}
	if !isSyncMutexType(f.pkg.Info.Types[sel.X].Type) {
		return nil
	}
	recv := ast.Unparen(sel.X)
	return &mutexOp{
		call:     c,
		path:     types.ExprString(recv),
		class:    lockClassOf(f.pkg.Info, recv),
		acquire:  acquire,
		strength: strength,
	}
}

func isSyncMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// lockClassOf resolves the declaration identity of a mutex receiver
// expression: "pkgpath.Type.field" for struct fields, "pkgpath.name"
// for package-level mutexes, "" for anything else (locals).
func lockClassOf(info *types.Info, recv ast.Expr) string {
	switch recv := recv.(type) {
	case *ast.SelectorExpr:
		if key, ok := lint.FieldOf(info.Selections[recv]); ok {
			return key.PkgPath + "." + key.Type + "." + key.Field
		}
		// Qualified package-level mutex: pkg.Mu.
		if v, ok := info.Uses[recv.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[recv].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

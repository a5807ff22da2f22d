package analyzers

// The structured dataflow walker shared by the lock-set analysis
// (lockflow.go: guardedby, lockorder) and the interval analysis
// (rangeflow.go: rangecheck, boundscontract). It interprets one function
// body over the AST — no separate CFG — with a state that maps reference
// paths ("s.mu", "b.Count") to an analysis value. The walker owns
// control flow; an analysis supplies a lattice (how two paths' values
// combine) and transfer functions for everything else.
//
// Control-flow semantics, identical for every analysis:
//
//   - Where paths meet (after if/else, switch, select, a loop, an
//     inlined literal) the state keeps only paths present on every
//     incoming edge, combined by the lattice's join. Edges that end in
//     return, panic or a no-return call (isTerminator) join nothing.
//   - Conditions narrow each branch (the analysis decides how); a
//     contradictory narrowing makes the branch dead, and a dead branch
//     is walked silently and joins nothing.
//   - A loop runs silent rounds from its entry state, joining every back
//     edge — the body's normal end and every continue aimed at it, by
//     label or not — until the entry stops changing; after widenAfter
//     rounds the lattice's widen forces growth to a bound, and loopBudget
//     caps the rounds. One reporting round then runs from that state.
//     The loop exits from the stable state (narrowed by the negated
//     condition) and from every break aimed at it.
//   - fallthrough carries the falling clause's exit into the next
//     clause, which starts from that state joined with its own entry.
//   - goto is not modelled: the path stops there (the module has none).
//   - Hooks fire only when not silent: never in fixpoint rounds, dead
//     branches or the analyses' own re-evaluations.
//   - Function literals that escape — deferred, go'd, or passed as
//     values — run at another time, so they are queued and walked after
//     the body from a fresh state; an analysis may instead inline an
//     immediately invoked literal.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"etsqp/internal/lint"
)

// loopBudget caps a loop's silent rounds and widenAfter is the round
// from which still-changing values are widened. Across the module, lock
// sets settle in one round and intervals in at most six.
const (
	loopBudget = 6
	widenAfter = 3
)

// A lattice is what one analysis supplies to the walker.
type lattice[V any] interface {
	// join combines the values of a path present on two meeting edges.
	join(a, b V) V
	equal(a, b V) bool
	// widen jumps a loop-entry value still changing after widenAfter
	// rounds far enough that the fixpoint terminates.
	widen(prev, next V) V
	// leaf interprets every statement the walker does not own:
	// expression, assignment, inc/dec, declaration, send, go, defer, and
	// the operands of a return (the walker then ends the path).
	leaf(s ast.Stmt)
	// expr evaluates an expression the walker meets in control flow: a
	// condition, switch tag, case value or range operand.
	expr(e ast.Expr)
	// cond narrows the state assuming e evaluates to sense; false means
	// the assumption is contradictory. A nil e narrows nothing.
	cond(e ast.Expr, sense bool) bool
	// tagCase narrows the state entering `case val:` of `switch tag`.
	tagCase(tag, val ast.Expr) bool
	// rangeVars assigns a range loop's key and value for one iteration.
	rangeVars(s *ast.RangeStmt)
}

// flow is the walker's state while interpreting one function.
type flow[V any] struct {
	lat        lattice[V]
	state      map[string]V
	silent     bool
	terminated bool
	ctxs       []*flowCtx[V]
	returns    []map[string]V
	label      string // pending label for the next loop/switch/select

	queue  []*ast.FuncLit
	queued map[*ast.FuncLit]bool
}

// flowCtx is one enclosing breakable statement (loop, switch, select).
type flowCtx[V any] struct {
	label     string
	isLoop    bool
	breaks    []map[string]V
	continues []map[string]V
	fall      map[string]V // exit of a clause ending in fallthrough
}

func cloneState[V any](s map[string]V) map[string]V {
	out := make(map[string]V, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// run interprets body from seed, then every function literal that
// escaped it (and, transitively, them) from litSeed(lit).
func (f *flow[V]) run(body *ast.BlockStmt, seed map[string]V, litSeed func(*ast.FuncLit) map[string]V) {
	f.queued = map[*ast.FuncLit]bool{}
	f.state = seed
	f.stmt(body)
	for i := 0; i < len(f.queue); i++ {
		lit := f.queue[i]
		f.terminated, f.ctxs, f.returns, f.label = false, nil, nil, ""
		f.state = litSeed(lit)
		f.stmt(lit.Body)
	}
}

func (f *flow[V]) enqueue(lit *ast.FuncLit) {
	if f.silent || f.queued[lit] {
		return
	}
	f.queued[lit] = true
	f.queue = append(f.queue, lit)
}

// inline interprets an immediately invoked literal's body in place, as a
// nested function entered with the current state: its returns and its
// normal end are the exits that continue the caller.
func (f *flow[V]) inline(body *ast.BlockStmt) {
	ctxs, returns := f.ctxs, f.returns
	f.ctxs, f.returns, f.state = nil, nil, cloneState(f.state)
	exits := f.clause(nil, body)
	exits = append(f.returns, exits...)
	f.ctxs, f.returns = ctxs, returns
	f.merge(exits)
}

// ---- statements ----

func (f *flow[V]) stmt(s ast.Stmt) {
	if f.terminated || s == nil {
		return
	}
	lbl := f.label
	f.label = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			f.stmt(st)
		}
	case *ast.LabeledStmt:
		f.label = s.Label.Name
		f.stmt(s.Stmt)
	case *ast.ReturnStmt:
		f.lat.leaf(s)
		f.returns = append(f.returns, cloneState(f.state))
		f.terminated = true
	case *ast.IfStmt:
		f.stmt(s.Init)
		f.lat.expr(s.Cond)
		entry := f.state
		exits := f.arm(nil, entry, s.Cond, true, s.Body)
		exits = f.arm(exits, entry, s.Cond, false, s.Else)
		f.merge(exits)
	case *ast.ForStmt:
		f.stmt(s.Init)
		f.loop(lbl, s.Cond != nil, s.Cond, func() {
			f.lat.expr(s.Cond)
			if !f.lat.cond(s.Cond, true) {
				f.terminated = true // body unreachable
				return
			}
			f.stmt(s.Body)
			f.stmt(s.Post)
		})
	case *ast.RangeStmt:
		f.lat.expr(s.X)
		// The range may be empty or exhausted: the loop always exits
		// from its stable entry state.
		f.loop(lbl, true, nil, func() {
			f.lat.rangeVars(s)
			f.stmt(s.Body)
		})
	case *ast.SwitchStmt:
		f.switchStmt(s.Init, s.Tag, nil, s.Body, lbl)
	case *ast.TypeSwitchStmt:
		f.switchStmt(s.Init, nil, s.Assign, s.Body, lbl)
	case *ast.SelectStmt:
		entry := f.state
		ctx := f.push(lbl, false)
		var exits []map[string]V
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			f.state, f.terminated = cloneState(entry), false
			f.stmt(cc.Comm)
			exits = f.clause(exits, cc.Body...)
		}
		f.pop()
		f.merge(append(exits, ctx.breaks...))
	case *ast.BranchStmt:
		f.branchStmt(s)
	case *ast.EmptyStmt:
	default:
		f.lat.leaf(s)
	}
}

// arm walks one branch of an if from entry narrowed by cond == sense and
// appends its exit when the branch can fall out.
func (f *flow[V]) arm(exits []map[string]V, entry map[string]V, cond ast.Expr, sense bool, s ast.Stmt) []map[string]V {
	f.state, f.terminated = cloneState(entry), false
	if !f.lat.cond(cond, sense) {
		f.dead(s)
		return exits
	}
	return f.clause(exits, s)
}

// clause walks a clause body from the current state and appends its
// exit when the body can fall out.
func (f *flow[V]) clause(exits []map[string]V, body ...ast.Stmt) []map[string]V {
	for _, st := range body {
		f.stmt(st)
	}
	if f.terminated {
		return exits
	}
	return append(exits, f.state)
}

// dead walks statically unreachable statements silently, so a
// contradiction-guarded body produces no findings.
func (f *flow[V]) dead(list ...ast.Stmt) {
	saved := f.silent
	f.silent = true
	for _, s := range list {
		f.stmt(s)
	}
	f.silent = saved
}

// merge joins the exits meeting after a statement; none left means every
// path through it ended.
func (f *flow[V]) merge(exits []map[string]V) {
	f.terminated = len(exits) == 0
	if f.terminated {
		return
	}
	out := exits[0]
	for _, e := range exits[1:] {
		out = f.joinStates(out, e)
	}
	f.state = out
}

// joinStates keeps the paths present in both states, joining values.
func (f *flow[V]) joinStates(a, b map[string]V) map[string]V {
	out := make(map[string]V, len(a))
	for k, av := range a {
		if bv, ok := b[k]; ok {
			out[k] = f.lat.join(av, bv)
		}
	}
	return out
}

func (f *flow[V]) equalStates(a, b map[string]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || !f.lat.equal(av, bv) {
			return false
		}
	}
	return true
}

// loop interprets a loop whose iteration is iter: silent rounds to the
// stable entry state, one reporting round from it, then the exits. A
// loop with hasExit leaves from the stable state narrowed by !cond.
func (f *flow[V]) loop(lbl string, hasExit bool, cond ast.Expr, iter func()) {
	cur := f.state
	saved := f.silent
	f.silent = true
	for i := 0; i < loopBudget; i++ {
		ctx := f.iterate(cur, lbl, iter)
		next := cur
		for _, e := range ctx.continues {
			next = f.joinStates(next, e)
		}
		if !f.terminated {
			next = f.joinStates(next, f.state)
		}
		if f.equalStates(next, cur) {
			break
		}
		if i >= widenAfter {
			for k, nv := range next {
				if pv, ok := cur[k]; ok && !f.lat.equal(pv, nv) {
					next[k] = f.lat.widen(pv, nv)
				}
			}
		}
		cur = next
	}
	f.silent = saved
	ctx := f.iterate(cur, lbl, iter)
	var exits []map[string]V
	if hasExit {
		f.state = cloneState(cur)
		f.lat.cond(cond, false)
		exits = append(exits, f.state)
	}
	f.merge(append(exits, ctx.breaks...))
}

// iterate runs one round of a loop body from state from.
func (f *flow[V]) iterate(from map[string]V, lbl string, iter func()) *flowCtx[V] {
	ctx := f.push(lbl, true)
	f.state, f.terminated = cloneState(from), false
	iter()
	f.pop()
	return ctx
}

func (f *flow[V]) push(lbl string, isLoop bool) *flowCtx[V] {
	ctx := &flowCtx[V]{label: lbl, isLoop: isLoop}
	f.ctxs = append(f.ctxs, ctx)
	return ctx
}

func (f *flow[V]) pop() { f.ctxs = f.ctxs[:len(f.ctxs)-1] }

// switchStmt interprets an expression or type switch. Each clause starts
// from the entry narrowed by its own case and — in a boolean switch — by
// every earlier case being false; the exit joins every clause that falls
// out, every break and, without a default, the narrowed entry itself.
func (f *flow[V]) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, lbl string) {
	f.stmt(init)
	f.lat.expr(tag)
	f.stmt(assign)
	ctx := f.push(lbl, false)
	fallen := cloneState(f.state)
	var exits []map[string]V
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		hasDefault = hasDefault || cc.List == nil
		boolCase := tag == nil && assign == nil && len(cc.List) == 1
		f.state, f.terminated = cloneState(fallen), false
		for _, e := range cc.List {
			f.lat.expr(e)
		}
		live := true
		if boolCase {
			live = f.lat.cond(cc.List[0], true)
		} else if tag != nil && len(cc.List) == 1 {
			live = f.lat.tagCase(tag, cc.List[0])
		}
		if fall := ctx.fall; fall != nil {
			ctx.fall = nil
			if live {
				fall = f.joinStates(f.state, fall)
			}
			f.state, live = fall, true
		}
		if live {
			exits = f.clause(exits, cc.Body...)
		} else {
			f.dead(cc.Body...)
			ctx.fall = nil // a dead clause's fallthrough carries nothing
		}
		if boolCase {
			f.state, f.terminated = fallen, false
			f.lat.cond(cc.List[0], false)
			fallen = f.state
		}
	}
	f.pop()
	exits = append(exits, ctx.breaks...)
	if !hasDefault {
		exits = append(exits, fallen)
	}
	f.merge(exits)
}

func (f *flow[V]) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if c := f.target(label, false); c != nil {
			c.breaks = append(c.breaks, cloneState(f.state))
		}
	case token.CONTINUE:
		if c := f.target(label, true); c != nil {
			c.continues = append(c.continues, cloneState(f.state))
		}
	case token.FALLTHROUGH:
		// Always the last statement of a clause directly inside its
		// switch, so the innermost context is that switch.
		f.ctxs[len(f.ctxs)-1].fall = cloneState(f.state)
	}
	f.terminated = true // goto included: not modelled, the path stops
}

// target finds the statement a break (or, with loop, a continue)
// leaves: the innermost one, or the one carrying the label.
func (f *flow[V]) target(label string, loop bool) *flowCtx[V] {
	for i := len(f.ctxs) - 1; i >= 0; i-- {
		c := f.ctxs[i]
		if (!loop || c.isLoop) && (label == "" || c.label == label) {
			return c
		}
	}
	return nil
}

// isTerminator reports whether a call never returns: the panic builtin,
// os.Exit, runtime.Goexit, log.Fatal* and log.Panic*.
func isTerminator(info *types.Info, c *ast.CallExpr) bool {
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	}
	fn := lint.CalleeFunc(info, c)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal") || strings.HasPrefix(fn.Name(), "Panic")
	}
	return false
}

// inTestFile reports whether a declaration lives in a _test.go file.
// The concurrency-contract analyzers skip tests: in-package tests poke
// unpublished structs single-threaded, and the race-detector CI jobs
// cover them dynamically.
func inTestFile(m *lint.Module, pos token.Pos) bool {
	return strings.HasSuffix(m.Fset.Position(pos).Filename, "_test.go")
}

package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"etsqp/internal/lint"
)

// ObsGuard enforces the observability layer's overhead contract:
//
//  1. Inside the obs package, the metric storage fields (Counter.v,
//     Gauge.v, and Histogram's buckets/sum) may only be touched by the
//     atomic helper methods (Counter/Timer/Gauge/Histogram receivers)
//     and the registry-wide capture/reset helpers — never by ad-hoc code
//     that could race or bypass the enable gate.
//  2. In //etsqp:hotpath functions (and their module callees), every
//     counter/timer/gauge/histogram mutation must sit behind an
//     obs.Enabled() check so a disabled build pays one predicted branch,
//     not argument computation plus an atomic load per metric.
//  3. In //etsqp:hotpath functions, no obs mutation may run once per
//     iteration of a loop — in the loop body, or in a module callee the
//     loop body calls — with only obs.Enabled() guarding it: an enabled
//     build (the server's) would pay one shared atomic per iteration.
//     The loop's total is added once after it. A mutation behind a data
//     condition (a stop that fires once) is not per iteration.
//  4. Every metric registered in the obs package (newCounter / newTimer /
//     newGauge / newHistogram) must appear in a docs/OBSERVABILITY.md
//     table row, and every table row must name a registered metric — the
//     doc is the reviewed metrics surface and may not drift from the
//     registry.
var ObsGuard = &lint.Analyzer{
	Name: "obsguard",
	Doc:  "obs counters: atomic helpers only, Enabled()-gated in hot paths, none per hot-loop iteration, docs in sync",
	Run:  runObsGuard,
}

// obsMutators are the Counter/Timer/Gauge/Histogram methods that write
// a metric.
var obsMutators = map[string]bool{
	"Add": true, "Inc": true, "AddNanos": true, "Since": true,
	"Observe": true, "ObserveN": true, "Set": true,
}

func runObsGuard(pass *lint.Pass) error {
	m := pass.Module
	// Rule 1: direct storage-field access inside the obs package.
	for _, pkg := range m.Pkgs {
		if lint.PathHasSuffix(pkg.Path, "internal/obs") {
			checkObsFieldAccess(pass, pkg)
			checkObsDocSync(pass, pkg)
		}
	}
	// Rule 2: Enabled() gating in the hot-path closure.
	var roots []string
	for key, fi := range m.Funcs {
		if fi.Annotated("hotpath") {
			roots = append(roots, key)
		}
	}
	for _, fi := range m.Closure(roots, "coldpath") {
		if lint.PathHasSuffix(fi.Pkg.Path, "internal/obs") {
			continue // the helpers themselves carry the gate
		}
		checkObsGated(pass, fi)
	}
	// Rule 3: no obs mutation per iteration of a hot loop.
	counts := map[string]bool{}
	for _, key := range roots {
		checkObsPerIteration(pass, m.Funcs[key], counts)
	}
	return nil
}

// isObsMutation reports whether call writes an obs metric.
func isObsMutation(info *types.Info, call *ast.CallExpr) bool {
	fn := lint.CalleeFunc(info, call)
	if fn == nil || !obsMutators[fn.Name()] {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isObsCounterType(recv.Type())
}

// dataGuarded reports whether a data condition stands on the path from
// stack[from] down to n (stack[from+1:] and n itself): an if other than
// exactly obs.Enabled(), an else, a case, or the right operand of && or
// ||. obs.Enabled() checks alone do not skip a mutation in an enabled
// build.
func dataGuarded(info *types.Info, stack []ast.Node, from int, n ast.Node) bool {
	for i := from; i < len(stack); i++ {
		child := n
		if i+1 < len(stack) {
			child = stack[i+1]
		}
		switch p := stack[i].(type) {
		case *ast.IfStmt:
			if child == p.Else || child == p.Body && !isEnabledCall(info, p.Cond) {
				return true
			}
		case *ast.CaseClause, *ast.CommClause:
			return true
		case *ast.BinaryExpr:
			if (p.Op == token.LAND || p.Op == token.LOR) && child == p.Y {
				return true
			}
		}
	}
	return false
}

// isEnabledCall reports whether e is exactly a call to obs.Enabled.
func isEnabledCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && CalleeEnabledFunc(info, call)
}

// perIteration reports whether n, with ancestors stack, runs once per
// iteration of an enclosing loop of its function: it sits in a for
// loop's condition, post statement or body, or a range loop's body,
// with no function literal and no data condition in between.
func perIteration(info *types.Info, stack []ast.Node, n ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		child := n
		if i+1 < len(stack) {
			child = stack[i+1]
		}
		switch p := stack[i].(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if child != p.Init {
				return !dataGuarded(info, stack, i+1, n)
			}
		case *ast.RangeStmt:
			if child == p.Body {
				return !dataGuarded(info, stack, i+1, n)
			}
		}
	}
	return false
}

// checkObsPerIteration flags, in a hot function, each obs mutation and
// each call to a per-call counting module function (countsPerCall) that
// runs once per iteration of one of its loops.
func checkObsPerIteration(pass *lint.Pass, fi *lint.FuncInfo, counts map[string]bool) {
	if fi == nil || fi.Decl.Body == nil {
		return
	}
	info := fi.Pkg.Info
	lint.WalkStack(fi.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !perIteration(info, stack, call) {
			return true
		}
		if isObsMutation(info, call) {
			pass.Reportf(call.Pos(), "obs metric update runs once per loop iteration in hot path %s; add the loop's total once after it", fi.Obj.Name())
		} else if fn := lint.CalleeFunc(info, call); fn != nil && countsPerCall(pass.Module, fn.FullName(), counts) {
			pass.Reportf(call.Pos(), "%s updates an obs metric on every call, once per loop iteration in hot path %s; count once outside the loop", fn.Name(), fi.Obj.Name())
		}
		return true
	})
}

// countsPerCall reports whether a module function updates an obs metric
// on every call that reaches it: a mutation, or a call to such a
// function, guarded at most by obs.Enabled() checks and outside any
// function literal. The obs package's own helpers are the mutations,
// not callers of them. counts memoizes the answer; a function on the
// current call chain counts as false.
func countsPerCall(m *lint.Module, key string, counts map[string]bool) bool {
	if c, done := counts[key]; done {
		return c
	}
	counts[key] = false
	fi, ok := m.Funcs[key]
	if !ok || fi.Decl.Body == nil || lint.PathHasSuffix(fi.Pkg.Path, "internal/obs") {
		return false
	}
	info := fi.Pkg.Info
	found := false
	lint.WalkStack(fi.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || dataGuarded(info, stack, 0, call) {
			return true
		}
		if isObsMutation(info, call) {
			found = true
		} else if fn := lint.CalleeFunc(info, call); fn != nil && countsPerCall(m, fn.FullName(), counts) {
			found = true
		}
		return !found
	})
	counts[key] = found
	return found
}

// checkObsFieldAccess flags selections of the unexported counter storage
// outside the helper methods.
func checkObsFieldAccess(pass *lint.Pass, pkg *lint.Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obsHelperFunc(pkg, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pkg.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				field := s.Obj()
				if !isObsCounterType(s.Recv()) {
					return true
				}
				switch field.Name() {
				case "v":
					pass.Reportf(sel.Pos(), "direct access to counter storage outside the atomic helpers; use Add/Inc/Load")
				case "buckets", "sum":
					pass.Reportf(sel.Pos(), "direct access to histogram storage outside the atomic helpers; use Observe/Snapshot")
				}
				return true
			})
		}
	}
}

// obsHelperFunc reports whether fd is allowed to touch metric storage:
// a method on Counter, Timer, Gauge or Histogram, or the registry-wide
// capture/reset helpers.
func obsHelperFunc(pkg *lint.Package, fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		switch fd.Name.Name {
		case "Capture", "CaptureHistograms", "CaptureGauges", "Reset":
			return true
		}
		return false
	}
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return obsMetricTypes[named.Obj().Name()]
}

// obsMetricTypes are the obs package's metric holder types.
var obsMetricTypes = map[string]bool{
	"Counter": true, "Timer": true, "Gauge": true, "Histogram": true,
}

// isObsCounterType reports whether t (possibly a pointer) is the obs
// Counter, Timer or Histogram type.
func isObsCounterType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if !lint.PathHasSuffix(named.Obj().Pkg().Path(), "internal/obs") {
		return false
	}
	return obsMetricTypes[named.Obj().Name()]
}

// checkObsGated flags counter mutations in a hot function that are not
// enclosed in an if whose condition calls obs.Enabled().
func checkObsGated(pass *lint.Pass, fi *lint.FuncInfo) {
	if fi.Decl.Body == nil {
		return
	}
	info := fi.Pkg.Info
	lint.WalkStack(fi.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isObsMutation(info, call) {
			return true
		}
		if !enclosedInEnabledCheck(info, stack) {
			pass.Reportf(call.Pos(), "obs counter update in hot path %s is not behind obs.Enabled()", fi.Obj.Name())
		}
		return true
	})
}

// enclosedInEnabledCheck reports whether any enclosing if statement's
// condition contains a call to obs.Enabled.
func enclosedInEnabledCheck(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifStmt.Cond, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := CalleeEnabledFunc(info, call)
			if fn {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// CalleeEnabledFunc reports whether a call invokes obs.Enabled.
func CalleeEnabledFunc(info *types.Info, call *ast.CallExpr) bool {
	fn := lint.CalleeFunc(info, call)
	return fn != nil && fn.Name() == "Enabled" && fn.Pkg() != nil &&
		lint.PathHasSuffix(fn.Pkg().Path(), "internal/obs")
}

// obsRegistrars are the obs package constructors that register a metric
// under a dotted name.
var obsRegistrars = map[string]bool{
	"newCounter": true, "newTimer": true, "newGauge": true, "newHistogram": true,
}

// obsRegistration is one newCounter/newTimer/newHistogram call site.
type obsRegistration struct {
	name string
	pos  ast.Node
}

// checkObsDocSync cross-checks the metric registry against the
// docs/OBSERVABILITY.md tables: every registered name must appear in a
// table row (`| `name` | meaning |`) and every table row must name a
// registered metric. Packages with no registration calls are skipped —
// they keep their metrics outside the documented registry on purpose.
func checkObsDocSync(pass *lint.Pass, pkg *lint.Package) {
	var regs []obsRegistration
	var firstRegFile *ast.File
	for _, file := range pkg.Files {
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || !obsRegistrars[id.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			regs = append(regs, obsRegistration{name: name, pos: call.Args[0]})
			if firstRegFile == nil {
				firstRegFile = file
			}
			return true
		})
	}
	if len(regs) == 0 {
		return
	}
	docPath := filepath.Join(pass.Module.Dir, "docs", "OBSERVABILITY.md")
	data, err := os.ReadFile(docPath)
	if err != nil {
		pass.Reportf(firstRegFile.Name.Pos(), "metric registry has no docs/OBSERVABILITY.md to sync against: %v", err)
		return
	}
	documented := docMetricNames(string(data))
	declared := make(map[string]bool, len(regs))
	for _, r := range regs {
		declared[r.name] = true
		if !documented[r.name] {
			pass.Reportf(r.pos.Pos(), "metric %s is not documented in docs/OBSERVABILITY.md", r.name)
		}
	}
	var ghosts []string
	for name := range documented {
		if !declared[name] {
			ghosts = append(ghosts, name)
		}
	}
	sort.Strings(ghosts)
	for _, name := range ghosts {
		pass.Reportf(firstRegFile.Name.Pos(), "docs/OBSERVABILITY.md documents %s but no such metric is registered", name)
	}
}

// docMetricNames extracts metric names from OBSERVABILITY.md table rows.
// Only rows of the form `| `name` | ... |` whose name is dotted and
// space-free count (the registry's naming convention): prose and other
// tables may mention metrics freely without registering a doc claim.
func docMetricNames(doc string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		rest := line[len("| `"):]
		end := strings.IndexByte(rest, '`')
		if end <= 0 {
			continue
		}
		name := rest[:end]
		if !strings.Contains(name, ".") || strings.ContainsAny(name, " \t") {
			continue
		}
		out[name] = true
	}
	return out
}

package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"etsqp/internal/lint"
)

// GuardedBy proves the //etsqp:guardedby field contracts: every read of
// an annotated field must hold the named mutex (RLock suffices on a
// RWMutex), and every write must hold it at write strength. Proofs come
// from the intra-procedural lock-set dataflow in lockflow.go, a lattice
// over the shared walker in flow.go; locked accessor helpers are
// annotated //etsqp:locked <mu>, which seeds their lock set and turns
// every call site into a "caller must hold" check.
var GuardedBy = &lint.Analyzer{
	Name: "guardedby",
	Doc:  "reads/writes of //etsqp:guardedby fields hold the named mutex (lock-set dataflow)",
	Run:  runGuardedBy,
}

// guardDir is one validated guardedby directive: the annotated field
// plus the resolved kind of its guard mutex.
type guardDir struct {
	dir     *lint.FieldDir
	rwMutex bool // guard is sync.RWMutex (RLock is a valid read hold)
}

func runGuardedBy(pass *lint.Pass) error {
	m := pass.Module
	guards := validateGuardDirs(pass)
	lockedFuncs := validateLockedDirs(pass)
	if len(guards) == 0 && len(lockedFuncs) == 0 {
		return nil
	}
	for _, fi := range sortedFuncs(m) {
		fi := fi
		if fi.Decl.Body == nil || inTestFile(m, fi.Decl.Pos()) {
			continue
		}
		seed := lockedSeed(fi)
		hooks := lockHooks{
			access: func(sel *ast.SelectorExpr, set lockSet, write bool) {
				checkGuardedAccess(pass, fi.Pkg, guards, sel, set, write)
			},
			call: func(call *ast.CallExpr, set lockSet) {
				checkLockedCall(pass, fi.Pkg, lockedFuncs, call, set)
			},
		}
		walkLockFunc(fi.Pkg, fi.Decl, seed, hooks)
	}
	return nil
}

// validateGuardDirs checks every //etsqp:guardedby directive names a
// sync.Mutex/RWMutex field of the same struct, reporting misannotations
// and returning the usable directives.
func validateGuardDirs(pass *lint.Pass) map[lint.FieldKey]*guardDir {
	m := pass.Module
	out := map[lint.FieldKey]*guardDir{}
	for _, key := range sortedFieldKeys(m) {
		d := m.Fields[key]
		if d.GuardedBy == "" {
			continue
		}
		mt := structFieldType(m, key.PkgPath, key.Type, d.GuardedBy)
		if mt == nil {
			pass.Reportf(d.Pos, "//etsqp:guardedby %s: %s.%s has no field %q",
				d.GuardedBy, key.Type, key.Field, d.GuardedBy)
			continue
		}
		if !isSyncMutexType(mt) {
			pass.Reportf(d.Pos, "//etsqp:guardedby %s: field %q of %s is %s, not a sync.Mutex or sync.RWMutex",
				d.GuardedBy, d.GuardedBy, key.Type, mt.String())
			continue
		}
		out[key] = &guardDir{dir: d, rwMutex: isRWMutexType(mt)}
	}
	return out
}

// validateLockedDirs checks every //etsqp:locked directive: the
// function must be a method whose receiver struct has the named mutex
// field(s), or a package-level function naming package-level mutexes.
func validateLockedDirs(pass *lint.Pass) map[string]*lint.FuncInfo {
	m := pass.Module
	out := map[string]*lint.FuncInfo{}
	for _, fi := range sortedFuncs(m) {
		if !fi.Annotated("locked") {
			continue
		}
		arg := fi.AnnotationArg("locked")
		if len(lockedMutexNames(fi)) == 0 {
			pass.Reportf(fi.Decl.Pos(), "//etsqp:locked needs a mutex name: //etsqp:locked <mu>")
			continue
		}
		ok := true
		for _, name := range lockedMutexNames(fi) {
			var mt types.Type
			if tn := recvTypeName(fi); tn != "" {
				mt = structFieldType(m, fi.Pkg.Path, tn, name)
			} else if obj, _ := fi.Pkg.Types.Scope().Lookup(name).(*types.Var); obj != nil {
				mt = obj.Type()
			}
			if mt == nil || !isSyncMutexType(mt) {
				pass.Reportf(fi.Decl.Pos(), "//etsqp:locked %s: %q is not a sync.Mutex/RWMutex reachable from %s",
					arg, name, fi.Obj.Name())
				ok = false
			}
		}
		if ok {
			out[fi.Key] = fi
		}
	}
	return out
}

// lockedMutexNames splits the //etsqp:locked argument ("mu" or
// "mu,errMu"; the first token — the rest of the line is commentary)
// into the named mutexes.
func lockedMutexNames(fi *lint.FuncInfo) []string {
	fields := strings.Fields(fi.AnnotationArg("locked"))
	if len(fields) == 0 {
		return nil
	}
	var out []string
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// lockedSeed builds the entry lock set of an //etsqp:locked function:
// each named mutex held at write strength through the receiver (or
// bare, for package-level mutexes).
func lockedSeed(fi *lint.FuncInfo) lockSet {
	if !fi.Annotated("locked") {
		return nil
	}
	seed := lockSet{}
	recv := recvIdentName(fi)
	for _, name := range lockedMutexNames(fi) {
		path, class := name, ""
		if recv != "" {
			path = recv + "." + name
			if tn := recvTypeName(fi); tn != "" {
				class = fi.Pkg.Path + "." + tn + "." + name
			}
		} else {
			class = fi.Pkg.Path + "." + name
		}
		seed[path] = lockInfo{strength: lockWrite, class: class}
	}
	return seed
}

// checkGuardedAccess reports a guarded-field access whose required
// mutex is not held (or held only for reading on a write).
func checkGuardedAccess(pass *lint.Pass, pkg *lint.Package, guards map[lint.FieldKey]*guardDir, sel *ast.SelectorExpr, set lockSet, write bool) {
	key, ok := lint.FieldOf(pkg.Info.Selections[sel])
	if !ok {
		return
	}
	g, ok := guards[key]
	if !ok {
		return
	}
	lockPath := types.ExprString(ast.Unparen(sel.X)) + "." + g.dir.GuardedBy
	li, held := set[lockPath]
	field := key.Type + "." + key.Field
	switch {
	case !held && write:
		pass.Reportf(sel.Pos(), "write to %s without holding %s (//etsqp:guardedby)", field, lockPath)
	case !held:
		pass.Reportf(sel.Pos(), "read of %s without holding %s (//etsqp:guardedby)", field, lockPath)
	case write && li.strength < lockWrite:
		pass.Reportf(sel.Pos(), "write to %s with %s read-locked (write lock required)", field, lockPath)
	}
}

// checkLockedCall reports calls to //etsqp:locked functions made
// without holding the required mutex(es) at write strength.
func checkLockedCall(pass *lint.Pass, pkg *lint.Package, lockedFuncs map[string]*lint.FuncInfo, call *ast.CallExpr, set lockSet) {
	fn := lint.CalleeFunc(pkg.Info, call)
	if fn == nil {
		return
	}
	target, ok := lockedFuncs[fn.FullName()]
	if !ok {
		return
	}
	// For methods, the caller must hold the mutex through the same
	// receiver expression it invokes the method on: b.mu for b.resetLocked().
	base := ""
	if recvIdentName(target) != "" {
		selFun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return // method value/expression call; receiver unknown
		}
		base = types.ExprString(ast.Unparen(selFun.X)) + "."
	}
	for _, name := range lockedMutexNames(target) {
		want := base + name
		if li, held := set[want]; !held || li.strength < lockWrite {
			pass.Reportf(call.Pos(), "call to %s requires holding %s (//etsqp:locked)", fn.Name(), want)
		}
	}
}

// ---- shared small helpers ----

// sortedFuncs returns the module's functions in deterministic key order.
func sortedFuncs(m *lint.Module) []*lint.FuncInfo {
	keys := make([]string, 0, len(m.Funcs))
	for k := range m.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*lint.FuncInfo, 0, len(keys))
	for _, k := range keys {
		out = append(out, m.Funcs[k])
	}
	return out
}

// sortedFieldKeys returns the module's annotated field keys in
// deterministic order.
func sortedFieldKeys(m *lint.Module) []lint.FieldKey {
	keys := make([]lint.FieldKey, 0, len(m.Fields))
	for k := range m.Fields {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return fmt.Sprintf("%s.%s.%s", a.PkgPath, a.Type, a.Field) < fmt.Sprintf("%s.%s.%s", b.PkgPath, b.Type, b.Field)
	})
	return keys
}

// structFieldType resolves the type of a named struct's direct field,
// or nil when the package, type or field does not exist.
func structFieldType(m *lint.Module, pkgPath, typeName, fieldName string) types.Type {
	for _, pkg := range m.Pkgs {
		if pkg.Path != pkgPath {
			continue
		}
		tn, _ := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if tn == nil {
			return nil
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == fieldName {
				return st.Field(i).Type()
			}
		}
		return nil
	}
	return nil
}

func isRWMutexType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "RWMutex"
}

// recvTypeName returns the name of a method's receiver type, "" for
// plain functions.
func recvTypeName(fi *lint.FuncInfo) string {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// recvIdentName returns the declared receiver identifier ("b" in
// func (b *batch) ...), or "" for functions and unnamed receivers.
func recvIdentName(fi *lint.FuncInfo) string {
	if fi.Decl.Recv == nil || len(fi.Decl.Recv.List) == 0 {
		return ""
	}
	names := fi.Decl.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return ""
	}
	return names[0].Name
}

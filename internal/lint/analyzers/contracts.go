package analyzers

import (
	"fmt"
	"go/token"
	"slices"
	"strings"

	"etsqp/internal/lint"
)

// The compiler contracts certify what only the Go compiler can see: that
// a kernel keeps zero bounds checks, that nothing in it escapes to the
// heap, and that a helper stays under the inlining budget. They read the
// facts of one diagnostic build (lint.Module.CompilerFacts), which runs
// only when one of them is selected and at most once per module:
//
//	//etsqp:nobce     zero retained bounds checks in the function body
//	//etsqp:noescape  no parameter or local escapes to the heap
//	//etsqp:inline    the function must be inlinable
//
// One stray allocation or bounds check erases a vectorized kernel's win
// (Lemire & Boytsov), so the Section III unpack/delta kernels carry them.
var (
	NoBCE = &lint.Analyzer{
		Name: "nobce",
		Doc:  "annotated functions compile with zero retained bounds checks",
		Run:  runNoBCE,
	}
	NoEscape = &lint.Analyzer{
		Name: "noescape",
		Doc:  "no parameter or local in annotated functions escapes to the heap",
		Run:  runNoEscape,
	}
	Inline = &lint.Analyzer{
		Name: "inline",
		Doc:  "annotated functions are within the compiler's inlining budget",
		Run:  runInline,
	}
)

// Select resolves a comma-separated list of analyzer names against All,
// in the order given; the empty list selects all of them.
func Select(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return All, nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(All, func(a *lint.Analyzer) bool { return a.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, All[i])
	}
	return out, nil
}

// contractFuncs returns the functions carrying //etsqp:<name>, with
// bodies, skipping test files (go build does not compile _test.go, so no
// facts exist for them), together with the module's compiler facts.
func contractFuncs(pass *lint.Pass, name string) ([]*lint.FuncInfo, *lint.CompilerFacts, error) {
	m := pass.Module
	var out []*lint.FuncInfo
	for _, fi := range m.Funcs {
		if fi.Annotated(name) && fi.Decl.Body != nil &&
			!strings.HasSuffix(m.Fset.Position(fi.Decl.Pos()).Filename, "_test.go") {
			out = append(out, fi)
		}
	}
	if len(out) == 0 {
		return nil, nil, nil
	}
	facts, err := m.CompilerFacts()
	if err != nil {
		return nil, nil, err
	}
	return out, facts, nil
}

// inFunc reports whether pos falls inside the function declaration.
func inFunc(fi *lint.FuncInfo, pos token.Pos) bool {
	return fi.Decl.Pos() <= pos && pos <= fi.Decl.End()
}

// runNoBCE flags every bounds check the compiler retained inside an
// //etsqp:nobce function.
func runNoBCE(pass *lint.Pass) error {
	funcs, facts, err := contractFuncs(pass, "nobce")
	if err != nil {
		return err
	}
	for _, fi := range funcs {
		for _, b := range facts.Bounds {
			if inFunc(fi, b.Pos) {
				pass.Reportf(b.Pos, "nobce function %s retains a bounds check (%s); hoist a re-slice or add a length guard",
					fi.Obj.Name(), b.Msg)
			}
		}
	}
	return nil
}

// runNoEscape flags heap escapes inside //etsqp:noescape functions.
func runNoEscape(pass *lint.Pass) error {
	funcs, facts, err := contractFuncs(pass, "noescape")
	if err != nil {
		return err
	}
	for _, fi := range funcs {
		for _, e := range facts.Escapes {
			if inFunc(fi, e.Pos) {
				pass.Reportf(e.Pos, "noescape function %s: %s", fi.Obj.Name(), e.Msg)
			}
		}
	}
	return nil
}

// runInline requires a "can inline" fact at every //etsqp:inline
// function's declaration. The compiler places a function's fact at its
// name and a method's at its receiver list.
func runInline(pass *lint.Pass) error {
	funcs, facts, err := contractFuncs(pass, "inline")
	if err != nil {
		return err
	}
	for _, fi := range funcs {
		name := fi.Decl.Name.Pos()
		at := name
		if fi.Decl.Recv != nil {
			at = fi.Decl.Recv.Opening
		}
		msg, ok := facts.Inline[at]
		switch {
		case !ok:
			pass.Reportf(name, "inline function %s: compiler recorded no inlining fact", fi.Obj.Name())
		case strings.HasPrefix(msg, "cannot inline "):
			pass.Reportf(name, "inline function %s: %s", fi.Obj.Name(), msg)
		}
	}
	return nil
}

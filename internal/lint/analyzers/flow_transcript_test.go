package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"etsqp/internal/lint"
)

// TestFlowTranscript pins every event the dataflow walker hands the
// guardedby, lockorder, rangecheck and boundscontract analyzers, over
// every function of their four fixture corpora: position and kind, the
// held lock set with strengths, and the exact raw-op, call-argument and
// return intervals. The fixtures' want comments pin findings only; the
// transcript pins the states behind them, so a walker change that moves
// any lock set or interval shows up here even where no finding does.
// To regenerate, delete testdata/flow.golden: the test writes it and
// fails, and the diff is what a reviewer reads.
func TestFlowTranscript(t *testing.T) {
	var b strings.Builder
	for _, corpus := range []string{"guardedby", "lockorder", "rangecheck", "boundscontract"} {
		m, err := lint.Load(filepath.Join("testdata", corpus))
		if err != nil {
			t.Fatalf("loading %s: %v", corpus, err)
		}
		fmt.Fprintf(&b, "### %s\n", corpus)
		writeFlowTranscript(&b, m)
	}
	got := b.String()
	const golden = "testdata/flow.golden"
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s: review and commit it", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("transcript differs from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// writeFlowTranscript walks every function of m with both the lock-set
// and the interval walker, printing each hook event on its own line.
func writeFlowTranscript(w io.Writer, m *lint.Module) {
	bounds := buildBoundsIndex(m)
	at := func(p token.Pos) string {
		pos := m.Fset.Position(p)
		if rel, err := filepath.Rel(m.Dir, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		return fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
	}
	for _, fi := range sortedFuncs(m) {
		if fi.Decl.Body == nil {
			continue
		}
		fmt.Fprintf(w, "func %s\n", fi.Key)
		walkLockFunc(fi.Pkg, fi.Decl, lockedSeed(fi), lockHooks{
			access: func(sel *ast.SelectorExpr, set lockSet, write bool) {
				kind := "read"
				if write {
					kind = "write"
				}
				fmt.Fprintf(w, "  %s lock %s %s %s\n", at(sel.Pos()), kind, types.ExprString(sel), fmtLockSet(set))
			},
			acquire: func(op *mutexOp, held lockSet) {
				fmt.Fprintf(w, "  %s lock acquire %s=%s held %s\n", at(op.call.Pos()), op.path, fmtLock(lockInfo{op.strength, op.class}), fmtLockSet(held))
			},
			call: func(call *ast.CallExpr, set lockSet) {
				fmt.Fprintf(w, "  %s lock call %s %s\n", at(call.Pos()), types.ExprString(call.Fun), fmtLockSet(set))
			},
			enterClosure: func() { fmt.Fprintf(w, "  lock closures\n") },
		})
		walkRangeFunc(fi, bounds, rangeHooks{
			rawOp: func(pos token.Pos, op token.Token, desc string, exact *ival, t types.Type) {
				fmt.Fprintf(w, "  %s range raw %s %q %s %s\n", at(pos), op, desc, exact, t)
			},
			call: func(call *ast.CallExpr, argIval func(i int) *ival) {
				args := make([]string, len(call.Args))
				for i := range call.Args {
					args[i] = fmtIval(argIval(i))
				}
				fmt.Fprintf(w, "  %s range call %s(%s)\n", at(call.Pos()), types.ExprString(call.Fun), strings.Join(args, ", "))
			},
			ret: func(rs *ast.ReturnStmt, results []*ival) {
				res := make([]string, len(results))
				for i, iv := range results {
					res[i] = fmtIval(iv)
				}
				fmt.Fprintf(w, "  %s range return (%s)\n", at(rs.Pos()), strings.Join(res, ", "))
			},
			blankOK: func(pos token.Pos, callee string) {
				fmt.Fprintf(w, "  %s range blank-ok %s\n", at(pos), callee)
			},
		})
	}
}

func fmtLock(li lockInfo) string {
	s := "R"
	if li.strength == lockWrite {
		s = "W"
	}
	return s + "(" + li.class + ")"
}

func fmtLockSet(set lockSet) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + fmtLock(set[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func fmtIval(iv *ival) string {
	if iv == nil {
		return "-"
	}
	return iv.String()
}

// lineDiff reports the first few lines where got departs from want.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, w, g)
		if shown++; shown == 8 {
			break
		}
	}
	return b.String()
}

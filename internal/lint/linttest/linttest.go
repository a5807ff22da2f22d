// Package linttest runs analyzers over fixture modules and checks their
// diagnostics against expectations written in the fixture source, in the
// style of golang.org/x/tools/go/analysis/analysistest:
//
//	buf := make([]int64, n) // want `hot path Kernel calls make \(allocates\)`
//
// A `// want` comment holds one or more quoted regular expressions; each
// must match exactly one diagnostic reported on that line. Diagnostics
// without a matching expectation, and expectations without a matching
// diagnostic, fail the test.
package linttest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"etsqp/internal/lint"
)

type wantExp struct {
	re   *regexp.Regexp
	used bool
}

type posKey struct {
	file string
	line int
}

// Run loads the fixture module rooted at dir (which must contain its own
// go.mod so the surrounding module's build ignores it), runs the given
// analyzers and compares diagnostics with the fixture's want comments.
// The compiler-contract analyzers build the fixture, so their fixtures
// must be complete modules that compile on their own.
func Run(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	m, err := lint.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.Run(m, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	wants := collectWants(t, m)
	for _, d := range diags {
		key := posKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

// collectWants scans every fixture file for `// want "re" ...` comments.
func collectWants(t *testing.T, m *lint.Module) map[posKey][]*wantExp {
	t.Helper()
	wants := map[posKey][]*wantExp{}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					key := posKey{pos.Filename, pos.Line}
					for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
						q, err := strconv.QuotedPrefix(rest)
						if err != nil {
							t.Fatalf("%s: malformed want comment %q: %v", pos, c.Text, err)
						}
						rest = rest[len(q):]
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: unquoting %s: %v", pos, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: compiling want pattern %q: %v", pos, pat, err)
						}
						wants[key] = append(wants[key], &wantExp{re: re})
					}
				}
			}
		}
	}
	return wants
}

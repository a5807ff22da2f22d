// Package lint is a self-contained static-analysis framework for the
// ETSQP repository: a module loader built on the standard library's
// go/parser + go/types (no external dependencies), a function index with
// a static call graph and //etsqp: annotation support, and the Analyzer /
// Pass / Diagnostic plumbing that cmd/etsqp-lint drives.
//
// The shape mirrors golang.org/x/tools/go/analysis deliberately — an
// Analyzer has a Name, a Doc string and a Run function over a Pass — so
// the project-specific analyzers in internal/lint/analyzers read like
// ordinary vet checks. Unlike go/analysis, a Pass here sees the whole
// module at once: the invariants being enforced (hot-path allocation
// freedom, panic reachability from decode entry points) are properties of
// cross-package call chains, not of single packages.
//
// The annotation surface is documented in docs/STATIC_ANALYSIS.md:
//
//	//etsqp:hotpath  — function and its module-internal callees must not allocate
//	//etsqp:coldpath — stops the hot-path traversal (cached/amortized setup)
//	//etsqp:trusted  — panics here are accepted programmer-error guards
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check over a loaded Module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass carries one analyzer run over one module.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Module.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding: a position, the analyzer that
// produced it, and a message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run executes the analyzers over the module and returns all diagnostics
// in a deterministic order — file, line, column, analyzer, message — so
// repeated runs (and CI annotation diffs) are stable.
func Run(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Module: m}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s: %w", a.Name, err)
		}
		out = append(out, pass.diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// jsonDiagnostic is the stable machine-readable shape of -json output.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON writes diagnostics as an indented JSON array (never null:
// zero findings encode as []), in the order given.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WalkStack walks the AST rooted at n, calling fn with each node and the
// stack of its ancestors (outermost first, not including n itself).
// Returning false from fn prunes the subtree.
func WalkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(node, stack) {
			return false
		}
		stack = append(stack, node)
		return true
	})
}

// PathHasSuffix reports whether an import path ends in the given slash-
// separated suffix at a path-segment boundary. Analyzers match packages
// this way ("internal/obs", "pipeline") so they work identically on the
// real module and on test fixtures with a different module path.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

package lint

import (
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// CompilerFacts are the compiler's own diagnostics for the module, for
// the contracts only the compiler can certify (retained bounds checks,
// heap escapes, inlinability). Positions are those of the analyzed
// files (Module.Pkgs); facts in other files are dropped.
type CompilerFacts struct {
	Bounds  []Fact               // "Found IsInBounds" / "Found IsSliceInBounds"
	Escapes []Fact               // "... escapes to heap", "moved to heap: x", leaking params
	Inline  map[token.Pos]string // function name -> "can inline ..." / "cannot inline ..."
}

// A Fact is one attributed compiler diagnostic.
type Fact struct {
	Pos token.Pos
	Msg string
}

// buildGcflags are the compiler flags whose diagnostics are parsed:
// -m=2 for escape analysis and inlining decisions, check_bce for the
// bounds checks the SSA prove pass could not eliminate.
const buildGcflags = "-gcflags=-m=2 -d=ssa/check_bce/debug=1"

// CompilerFacts builds the module once with diagnostic flags and returns
// the parsed facts; later calls on the same module reuse them. The
// gcflags apply to the packages named by ./... (the module's own), so the
// standard library builds quietly, and the go command replays cached
// compiler output, so warm runs are cheap.
func (m *Module) CompilerFacts() (*CompilerFacts, error) {
	if m.facts == nil && m.factsErr == nil {
		m.facts, m.factsErr = m.collectFacts()
	}
	return m.facts, m.factsErr
}

func (m *Module) collectFacts() (*CompilerFacts, error) {
	cmd := exec.Command("go", "build", buildGcflags, "./...")
	cmd.Dir = m.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go build failed: %v\n%s", err, out)
	}
	// The loader parses a package's files more than once (as an import
	// and as an analysis unit); facts go to the analyzed copy.
	files := map[string]*token.File{}
	for _, pkg := range m.Pkgs {
		for _, af := range pkg.Files {
			tf := m.Fset.File(af.Pos())
			files[tf.Name()] = tf
		}
	}
	f := &CompilerFacts{Inline: map[token.Pos]string{}}
	// -m=2 prints some escape facts twice (once bare, once with a trailing
	// colon introducing the flow explanation); dedupe on position+message
	// so each fact is recorded once.
	seen := map[Fact]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		p, msg, ok := splitDiag(line, m.Dir)
		if !ok {
			continue
		}
		file := files[p.Filename]
		if file == nil || p.Line > file.LineCount() {
			continue
		}
		off := file.Offset(file.LineStart(p.Line)) + p.Column - 1
		if off > file.Size() {
			continue
		}
		fc := Fact{file.Pos(off), msg}
		if seen[fc] {
			continue
		}
		seen[fc] = true
		switch {
		case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
			f.Bounds = append(f.Bounds, fc)
		case strings.HasPrefix(msg, "moved to heap: "),
			strings.HasSuffix(msg, " escapes to heap"),
			strings.HasPrefix(msg, "leaking param") && !strings.Contains(msg, "to result"):
			f.Escapes = append(f.Escapes, fc)
		case strings.HasPrefix(msg, "can inline "), strings.HasPrefix(msg, "cannot inline "):
			f.Inline[fc.Pos] = msg
		}
	}
	return f, nil
}

// splitDiag parses one `path:line:col: message` compiler line. Package
// headers (`# etsqp/...`), blank lines and the indented flow-explanation
// continuations of -m=2 are rejected. Paths are printed relative to the
// module root; they come back absolute so they match the loader's.
func splitDiag(line, root string) (token.Position, string, bool) {
	var pos token.Position
	if line == "" || strings.HasPrefix(line, "#") {
		return pos, "", false
	}
	rest := line
	var parts [3]string
	for i := 0; i < 3; i++ {
		j := strings.Index(rest, ":")
		if j < 0 {
			return pos, "", false
		}
		parts[i] = rest[:j]
		rest = rest[j+1:]
	}
	msg, ok := strings.CutPrefix(rest, " ")
	if !ok || msg == "" || msg[0] == ' ' { // continuation detail line
		return pos, "", false
	}
	lineNo, err1 := strconv.Atoi(parts[1])
	colNo, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || lineNo < 1 || colNo < 1 || !strings.HasSuffix(parts[0], ".go") {
		return pos, "", false
	}
	file := parts[0]
	if !filepath.IsAbs(file) {
		file = filepath.Join(root, file)
	}
	pos = token.Position{Filename: file, Line: lineNo, Column: colNo}
	return pos, strings.TrimSuffix(msg, ":"), true
}

package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked analysis unit: a directory's package
// including its in-package _test.go files (external foo_test packages are
// skipped — the invariants under check live in the shipped code, but
// in-package tests exercise internal APIs like plan construction and are
// analyzed too).
type Package struct {
	Path  string // full import path, e.g. "etsqp/internal/pipeline"
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is a loaded, fully type-checked module plus the function index
// the cross-package analyzers (reachability, hot-path closure) run on.
type Module struct {
	Path string // module path from go.mod
	Dir  string
	Fset *token.FileSet
	Pkgs []*Package

	// Funcs maps a canonical function key (types.Func.FullName) to its
	// declaration, package, annotations and static callees.
	Funcs map[string]*FuncInfo

	// Fields maps annotated struct fields (//etsqp:guardedby,
	// //etsqp:atomic) to their directives, keyed by name so lookups work
	// across analysis units.
	Fields map[FieldKey]*FieldDir

	// facts memoizes CompilerFacts: one build per loaded module.
	facts    *CompilerFacts
	factsErr error
}

// loader type-checks the module bottom-up. Module-internal imports are
// resolved by recursively checking the non-test ("base") files of the
// imported directory; everything else (the standard library) is delegated
// to the source importer, so no export data or network is needed.
type loader struct {
	fset     *token.FileSet
	modPath  string
	root     string
	std      types.ImporterFrom
	base     map[string]*types.Package
	checking map[string]bool
}

// Load parses and type-checks the module rooted at dir (which must
// contain go.mod) and builds the function index.
func Load(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:     fset,
		modPath:  modPath,
		root:     root,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		base:     map[string]*types.Package{},
		checking: map[string]bool{},
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Path: modPath, Dir: root, Fset: fset}
	for _, d := range dirs {
		pkg, err := l.loadUnit(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Pkgs = append(m.Pkgs, pkg)
		}
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	m.buildIndex()
	return m, nil
}

// Import resolves an import path for the type checker.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		return l.loadBase(path)
	}
	return l.std.ImportFrom(path, srcDir, 0)
}

// loadBase type-checks the non-test files of a module-internal package.
func (l *loader) loadBase(path string) (*types.Package, error) {
	if p, ok := l.base[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer func() { l.checking[path] = false }()

	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/"))
	files, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.base[path] = pkg
	return pkg, nil
}

// loadUnit builds the analysis unit for one directory: base files plus
// in-package test files, type-checked with full types.Info.
func (l *loader) loadUnit(dir string) (*Package, error) {
	files, testFiles, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	// Ensure the base package is in the importer cache first so that
	// test-only imports of dependents never see the augmented package.
	if _, err := l.loadBase(path); err != nil {
		return nil, err
	}
	all := append(append([]*ast.File{}, files...), testFiles...)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, all, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s (with tests): %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: all, Types: tpkg, Info: info}, nil
}

// parseDir parses a directory's Go files, splitting them into base files
// and in-package test files. External (foo_test) test files and files for
// other package names are skipped.
func (l *loader) parseDir(dir string) (files, testFiles []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type parsed struct {
		f    *ast.File
		test bool
	}
	var all []parsed
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, parsed{f, strings.HasSuffix(name, "_test.go")})
	}
	// The package name is the one used by the non-test files.
	var pkgName string
	for _, p := range all {
		if !p.test {
			pkgName = p.f.Name.Name
			break
		}
	}
	if pkgName == "" {
		return nil, nil, nil // test-only directory
	}
	for _, p := range all {
		switch {
		case !p.test:
			files = append(files, p.f)
		case p.f.Name.Name == pkgName:
			testFiles = append(testFiles, p.f)
		}
	}
	return files, testFiles, nil
}

// packageDirs walks the module collecting directories that contain Go
// files, skipping nested modules, testdata and hidden directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		name := fi.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module (analyzer fixtures)
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

package analyzers

// Interval dataflow shared by the rangecheck and boundscontract
// analyzers: an intra-procedural abstract interpretation that tracks, at
// every program point, a [lo, hi] interval for every integer variable
// and field path in scope. Control flow — branch joins, the loop
// fixpoint, labels, fallthrough, escaped literals — is the shared
// walker's (flow.go); this file is the lattice, the transfer functions
// and the //etsqp:bounds directive table.
//
// The abstraction:
//
//   - Intervals are exact mathematical integers (math/big), always
//     finite: the top element of a variable is its type's value range
//     (int and uint are assumed 64 bits wide, as every supported
//     platform of this module has them).
//   - Arithmetic is evaluated exactly over operand intervals; the raw-op
//     hook sees the exact result interval *before* it is clamped back to
//     the type range, which is how rangecheck detects results that can
//     leave int64.
//   - Intervals seed from //etsqp:bounds directives on parameters and
//     struct fields, from constants, and from conversions of narrower
//     types; comparisons narrow them along branches (if/else, boolean
//     switch clauses, loop conditions), with && in the true branch and
//     || in the false branch decomposed.
//   - Paths meet by the interval hull. Loop entries still changing after
//     the walker's widening round jump to their type range, after which
//     loop-condition narrowing re-establishes index bounds.
//   - Functions annotated //etsqp:checked are runtime-checked arithmetic
//     primitives: their (int64, bool) results are clamped to int64 (the
//     directive argument "add" or "mul" models the exact operation, a
//     //etsqp:bounds return directive models anything else), and their
//     bodies are exempt from rangecheck.
//   - Variable identity is the printed path of the reference ("n",
//     "b.Count"), so facts about fields survive only until a call or an
//     assignment could invalidate them; address-taken locals are dropped
//     at every call.
//
// Not modeled: relational facts (i <= j+k), per-element slice intervals,
// and anything about float64 — the int64 value domain of Section VI-C is
// the whole scope; plain `int` index math is covered dynamically by the
// bounds-check-elimination budget of the nobce analyzer instead.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"math/big"
	"strings"

	"etsqp/internal/lint"
)

// ---- intervals ----

// ival is a closed interval [lo, hi] of mathematical integers. The
// bounds are never nil and never mutated after construction.
type ival struct {
	lo, hi *big.Int
}

var (
	bigZero      = big.NewInt(0)
	bigOne       = big.NewInt(1)
	bigMinInt64  = new(big.Int).Lsh(big.NewInt(-1), 63)
	bigMaxInt64  = new(big.Int).Sub(new(big.Int).Lsh(bigOne, 63), bigOne)
	bigMaxUint64 = new(big.Int).Sub(new(big.Int).Lsh(bigOne, 64), bigOne)
	int64Range   = &ival{lo: bigMinInt64, hi: bigMaxInt64}
)

func newIval(lo, hi *big.Int) *ival { return &ival{lo: lo, hi: hi} }

func pointIval(v *big.Int) *ival { return &ival{lo: v, hi: v} }

func (a *ival) String() string { return fmt.Sprintf("[%s, %s]", a.lo, a.hi) }

func (a *ival) subsetOf(b *ival) bool {
	return a.lo.Cmp(b.lo) >= 0 && a.hi.Cmp(b.hi) <= 0
}

func (a *ival) contains(v *big.Int) bool {
	return a.lo.Cmp(v) <= 0 && a.hi.Cmp(v) >= 0
}

func (a *ival) isPoint() bool { return a.lo.Cmp(a.hi) == 0 }

// joinIval is the union hull.
func joinIval(a, b *ival) *ival {
	lo, hi := a.lo, a.hi
	if b.lo.Cmp(lo) < 0 {
		lo = b.lo
	}
	if b.hi.Cmp(hi) > 0 {
		hi = b.hi
	}
	return newIval(lo, hi)
}

// meetIval is the intersection; ok is false when it is empty.
func meetIval(a, b *ival) (*ival, bool) {
	lo, hi := a.lo, a.hi
	if b.lo.Cmp(lo) > 0 {
		lo = b.lo
	}
	if b.hi.Cmp(hi) < 0 {
		hi = b.hi
	}
	if lo.Cmp(hi) > 0 {
		return nil, false
	}
	return newIval(lo, hi), true
}

func equalIval(a, b *ival) bool {
	return a.lo.Cmp(b.lo) == 0 && a.hi.Cmp(b.hi) == 0
}

// hullOf returns the min/max hull of a candidate set.
func hullOf(cands ...*big.Int) *ival {
	lo, hi := cands[0], cands[0]
	for _, c := range cands[1:] {
		if c.Cmp(lo) < 0 {
			lo = c
		}
		if c.Cmp(hi) > 0 {
			hi = c
		}
	}
	return newIval(lo, hi)
}

func addIval(a, b *ival) *ival {
	return newIval(new(big.Int).Add(a.lo, b.lo), new(big.Int).Add(a.hi, b.hi))
}

func subIval(a, b *ival) *ival {
	return newIval(new(big.Int).Sub(a.lo, b.hi), new(big.Int).Sub(a.hi, b.lo))
}

func negIval(a *ival) *ival {
	return newIval(new(big.Int).Neg(a.hi), new(big.Int).Neg(a.lo))
}

func mulIval(a, b *ival) *ival {
	return hullOf(
		new(big.Int).Mul(a.lo, b.lo), new(big.Int).Mul(a.lo, b.hi),
		new(big.Int).Mul(a.hi, b.lo), new(big.Int).Mul(a.hi, b.hi),
	)
}

// quoIval bounds Go's truncated integer division. Divisor candidates are
// the endpoints plus ±1 where the interval crosses them (the extremes of
// the quotient occur at divisors of minimal magnitude). A divisor that
// can only be zero yields nil (the op panics; no value flows on).
func quoIval(a, b *ival) *ival {
	var divs []*big.Int
	add := func(d *big.Int) {
		if d.Sign() != 0 && b.contains(d) {
			divs = append(divs, d)
		}
	}
	add(b.lo)
	add(b.hi)
	add(bigOne)
	add(big.NewInt(-1))
	if len(divs) == 0 {
		return nil
	}
	var cands []*big.Int
	for _, d := range divs {
		cands = append(cands,
			new(big.Int).Quo(a.lo, d), new(big.Int).Quo(a.hi, d))
	}
	return hullOf(cands...)
}

// remIval bounds Go's truncated remainder: |a % b| < max(|b|) with the
// sign of a, refined by |a| when a is small.
func remIval(a, b *ival) *ival {
	m := new(big.Int).Abs(b.lo)
	if abs := new(big.Int).Abs(b.hi); abs.Cmp(m) > 0 {
		m = abs
	}
	if m.Sign() == 0 {
		return nil // only divisor is zero: the op panics
	}
	bound := new(big.Int).Sub(m, bigOne)
	lo, hi := new(big.Int).Neg(bound), bound
	if a.lo.Sign() >= 0 {
		lo = bigZero
		if a.hi.Cmp(hi) < 0 {
			hi = a.hi
		}
	} else if a.hi.Sign() <= 0 {
		hi = bigZero
		if neg := new(big.Int).Neg(a.lo); neg.Cmp(bound) < 0 {
			lo = a.lo
		}
	}
	return newIval(lo, hi)
}

// maxShift caps modeled shift amounts: beyond it the result interval is
// astronomically out of every type range anyway, and the cap keeps the
// big.Int arithmetic small.
const maxShift = 256

func shlIval(a, b *ival) *ival {
	smin, smax := shiftRange(b)
	return hullOf(
		shiftLeft(a.lo, smin), shiftLeft(a.lo, smax),
		shiftLeft(a.hi, smin), shiftLeft(a.hi, smax),
	)
}

func shrIval(a, b *ival) *ival {
	smin, smax := shiftRange(b)
	// big.Int.Rsh on a negative value is floor division by 2^n — exactly
	// Go's arithmetic right shift.
	return hullOf(
		new(big.Int).Rsh(a.lo, smin), new(big.Int).Rsh(a.lo, smax),
		new(big.Int).Rsh(a.hi, smin), new(big.Int).Rsh(a.hi, smax),
	)
}

func shiftRange(b *ival) (uint, uint) {
	smin, smax := uint(0), uint(maxShift)
	if b.lo.Sign() > 0 && b.lo.Cmp(big.NewInt(maxShift)) < 0 {
		smin = uint(b.lo.Int64())
	}
	if b.hi.Sign() >= 0 && b.hi.Cmp(big.NewInt(maxShift)) < 0 {
		smax = uint(b.hi.Int64())
	}
	if smax < smin {
		smax = smin
	}
	return smin, smax
}

func shiftLeft(v *big.Int, n uint) *big.Int {
	return new(big.Int).Lsh(v, n) // Lsh is sign-preserving: v * 2^n
}

// bitwiseIval bounds & | ^ &^ for non-negative operands; nil otherwise.
func bitwiseIval(op token.Token, a, b *ival) *ival {
	if a.lo.Sign() < 0 || b.lo.Sign() < 0 {
		return nil
	}
	switch op {
	case token.AND:
		hi := a.hi
		if b.hi.Cmp(hi) < 0 {
			hi = b.hi
		}
		return newIval(bigZero, hi)
	case token.AND_NOT:
		return newIval(bigZero, a.hi)
	case token.OR, token.XOR:
		m := a.hi
		if b.hi.Cmp(m) > 0 {
			m = b.hi
		}
		bound := new(big.Int).Sub(new(big.Int).Lsh(bigOne, uint(m.BitLen())), bigOne)
		return newIval(bigZero, bound)
	}
	return nil
}

// typeIval returns the value range of an integer type (nil for anything
// else). int, uint and uintptr are assumed 64 bits wide.
func typeIval(t types.Type) *ival {
	if t == nil {
		return nil
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return nil
	}
	switch basic.Kind() {
	case types.Int, types.Int64:
		return int64Range
	case types.Int8:
		return newIval(big.NewInt(-128), big.NewInt(127))
	case types.Int16:
		return newIval(big.NewInt(-32768), big.NewInt(32767))
	case types.Int32:
		return newIval(big.NewInt(-1<<31), big.NewInt(1<<31-1))
	case types.Uint, types.Uint64, types.Uintptr:
		return newIval(bigZero, bigMaxUint64)
	case types.Uint8:
		return newIval(bigZero, big.NewInt(255))
	case types.Uint16:
		return newIval(bigZero, big.NewInt(65535))
	case types.Uint32:
		return newIval(bigZero, big.NewInt(1<<32-1))
	case types.UntypedInt:
		return int64Range
	}
	return nil
}

// isInt64Type reports whether the expression type is the int64 value
// domain rangecheck polices (underlying int64, excluding plain int —
// index math is the province of the BCE budget, not Section VI-C).
func isInt64Type(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Int64
}

// ---- //etsqp:bounds directives ----

// boundDecl is one parsed //etsqp:bounds directive.
type boundDecl struct {
	name string // parameter name, "return", or "" for fields
	iv   *ival
	pos  token.Pos
	raw  string
	err  string // non-empty when the directive is malformed
}

// funcBounds aggregates a function's bounds directives.
type funcBounds struct {
	params map[string]*boundDecl
	ret    *boundDecl
	bad    []*boundDecl
}

// boundsIndex is the module-wide directive table both analyzers share.
type boundsIndex struct {
	funcs   map[string]*funcBounds       // by FuncInfo.Key
	fields  map[lint.FieldKey]*boundDecl // by annotated field
	checked map[string]string            // //etsqp:checked funcs: key -> arg ("", "add", "mul")
}

// buildBoundsIndex parses every //etsqp:bounds and //etsqp:checked
// directive in the module. Multiple bounds lines per doc comment are
// supported (the generic annotation map keeps only the last, so the doc
// comments are rescanned here).
func buildBoundsIndex(m *lint.Module) *boundsIndex {
	idx := &boundsIndex{
		funcs:   map[string]*funcBounds{},
		fields:  map[lint.FieldKey]*boundDecl{},
		checked: map[string]string{},
	}
	for _, fi := range sortedFuncs(m) {
		if fi.Annotated("checked") {
			idx.checked[fi.Key] = strings.TrimSpace(fi.AnnotationArg("checked"))
		}
		if fi.Decl.Doc == nil {
			continue
		}
		var fb *funcBounds
		for _, c := range fi.Decl.Doc.List {
			arg, ok := cutBoundsLine(c.Text)
			if !ok {
				continue
			}
			if fb == nil {
				fb = &funcBounds{params: map[string]*boundDecl{}}
			}
			d := parseBoundDecl(arg, c.Pos(), true, constResolver(fi.Pkg, fb))
			switch {
			case d.err != "":
				fb.bad = append(fb.bad, d)
			case d.name == "return":
				fb.ret = d
			default:
				fb.params[d.name] = d
			}
		}
		if fb != nil {
			idx.funcs[fi.Key] = fb
		}
	}
	// Field directives resolve package constants and sibling fields'
	// declared bounds (for symbolic forms like [0, 1<<Width)); two passes
	// so declaration order does not matter.
	for pass := 0; pass < 2; pass++ {
		for _, key := range sortedFieldKeys(m) {
			dir := m.Fields[key]
			if dir.Bounds == "" {
				continue
			}
			if d, done := idx.fields[key]; done && d.err == "" {
				continue
			}
			pkg := pkgByPath(m, key.PkgPath)
			if pkg == nil {
				continue
			}
			resolve := func(name string) *ival {
				sib := lint.FieldKey{PkgPath: key.PkgPath, Type: key.Type, Field: name}
				if d, ok := idx.fields[sib]; ok && d.err == "" {
					return d.iv
				}
				return lookupConst(pkg, name)
			}
			idx.fields[key] = parseBoundDecl(dir.Bounds, dir.Pos, false, resolve)
		}
	}
	return idx
}

func pkgByPath(m *lint.Module, path string) *lint.Package {
	for _, pkg := range m.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// cutBoundsLine extracts the argument of a //etsqp:bounds comment line.
func cutBoundsLine(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//etsqp:bounds")
	if !ok {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// constResolver resolves bound-expression identifiers against the
// declaring package's constants and the function's sibling parameter
// bounds parsed so far.
func constResolver(pkg *lint.Package, fb *funcBounds) func(string) *ival {
	return func(name string) *ival {
		if fb != nil {
			if d, ok := fb.params[name]; ok {
				return d.iv
			}
		}
		return lookupConst(pkg, name)
	}
}

// lookupConst resolves a (possibly pkg-qualified) integer constant to a
// point interval.
func lookupConst(pkg *lint.Package, name string) *ival {
	scope := pkg.Types.Scope()
	if dot := strings.IndexByte(name, '.'); dot >= 0 {
		qual, rest := name[:dot], name[dot+1:]
		scope = nil
		for _, imp := range pkg.Types.Imports() {
			if imp.Name() == qual {
				scope = imp.Scope()
				break
			}
		}
		if scope == nil {
			return nil
		}
		name = rest
	}
	c, ok := scope.Lookup(name).(*types.Const)
	if !ok {
		return nil
	}
	return constIval(c.Val())
}

func constIval(v constant.Value) *ival {
	if v == nil || v.Kind() != constant.Int {
		return nil
	}
	switch val := constant.Val(v).(type) {
	case int64:
		return pointIval(big.NewInt(val))
	case *big.Int:
		return pointIval(new(big.Int).Set(val))
	}
	return nil
}

// parseBoundDecl parses "name [lo, hi]" (named true) or "[lo, hi]"
// (struct fields). A ')' closer makes hi exclusive. The bound
// expressions are Go constant expressions over integer literals, + - *
// / % << >> and identifiers the resolver can supply an interval for.
func parseBoundDecl(arg string, pos token.Pos, named bool, resolve func(string) *ival) *boundDecl {
	d := &boundDecl{pos: pos, raw: arg}
	spec := strings.TrimSpace(arg)
	if named && !strings.HasPrefix(spec, "[") {
		i := strings.IndexAny(spec, " \t")
		if i < 0 {
			d.err = "want <name> [lo, hi]"
			return d
		}
		d.name, spec = spec[:i], strings.TrimSpace(spec[i+1:])
	}
	if named && d.name == "" {
		d.err = "want <name> [lo, hi]"
		return d
	}
	exclusive := false
	switch {
	case strings.HasPrefix(spec, "[") && strings.HasSuffix(spec, "]"):
	case strings.HasPrefix(spec, "[") && strings.HasSuffix(spec, ")"):
		exclusive = true
	default:
		d.err = fmt.Sprintf("malformed interval %q: want [lo, hi] or [lo, hi)", spec)
		return d
	}
	inner := spec[1 : len(spec)-1]
	parts := strings.SplitN(inner, ",", 2)
	if len(parts) != 2 {
		d.err = fmt.Sprintf("malformed interval %q: want two comma-separated bounds", spec)
		return d
	}
	lo := evalBoundExpr(parts[0], resolve)
	hi := evalBoundExpr(parts[1], resolve)
	if lo == nil || hi == nil {
		d.err = fmt.Sprintf("cannot evaluate interval %q: bounds must be integer constant expressions", spec)
		return d
	}
	hiV := hi.hi
	if exclusive {
		hiV = new(big.Int).Sub(hiV, bigOne)
	}
	if lo.lo.Cmp(hiV) > 0 {
		d.err = fmt.Sprintf("empty interval %q", spec)
		return d
	}
	d.iv = newIval(lo.lo, hiV)
	return d
}

// evalBoundExpr evaluates one bound expression to an interval (a point
// for fully constant expressions; a hull when it references bounded
// siblings). nil means unresolvable.
func evalBoundExpr(src string, resolve func(string) *ival) *ival {
	e, err := parser.ParseExpr(strings.TrimSpace(src))
	if err != nil {
		return nil
	}
	var eval func(e ast.Expr) *ival
	eval = func(e ast.Expr) *ival {
		switch e := e.(type) {
		case *ast.BasicLit:
			if e.Kind != token.INT {
				return nil
			}
			v, ok := new(big.Int).SetString(e.Value, 0)
			if !ok {
				return nil
			}
			return pointIval(v)
		case *ast.Ident:
			return resolve(e.Name)
		case *ast.SelectorExpr:
			if base, ok := e.X.(*ast.Ident); ok {
				return resolve(base.Name + "." + e.Sel.Name)
			}
			return nil
		case *ast.ParenExpr:
			return eval(e.X)
		case *ast.UnaryExpr:
			x := eval(e.X)
			if x == nil {
				return nil
			}
			switch e.Op {
			case token.SUB:
				return negIval(x)
			case token.ADD:
				return x
			}
			return nil
		case *ast.BinaryExpr:
			x, y := eval(e.X), eval(e.Y)
			if x == nil || y == nil {
				return nil
			}
			switch e.Op {
			case token.ADD:
				return addIval(x, y)
			case token.SUB:
				return subIval(x, y)
			case token.MUL:
				return mulIval(x, y)
			case token.QUO:
				return quoIval(x, y)
			case token.REM:
				return remIval(x, y)
			case token.SHL:
				return shlIval(x, y)
			case token.SHR:
				return shrIval(x, y)
			}
			return nil
		}
		return nil
	}
	return eval(e)
}

// ---- the lattice ----

// rangeEnv maps reference paths ("n", "b.Count") to their intervals.
type rangeEnv = map[string]*rangeFact

type rangeFact struct {
	iv *ival
	t  types.Type
}

// rangeHooks are the dataflow events an analyzer observes; they fire
// only during reporting passes.
type rangeHooks struct {
	// rawOp fires for every raw (unchecked) binary arithmetic op and
	// op-assignment, with the exact (pre-clamp) result interval.
	rawOp func(pos token.Pos, op token.Token, desc string, exact *ival, t types.Type)
	// call fires for every ordinary call, with an evaluator for the
	// interval of argument i at the call point.
	call func(call *ast.CallExpr, argIval func(i int) *ival)
	// ret fires at every return with the interval of each integer result
	// (nil entries for non-integer results).
	ret func(rs *ast.ReturnStmt, results []*ival)
	// blankOK fires when the ok result of a //etsqp:checked helper is
	// assigned to the blank identifier.
	blankOK func(pos token.Pos, callee string)
}

type rangeFlow struct {
	*flow[*rangeFact]
	pkg       *lint.Package
	bounds    *boundsIndex
	hooks     rangeHooks
	addrTaken map[string]bool
}

// walkRangeFunc interprets one function body. The seed environment maps
// parameter names to their declared (or type) intervals. Escaped
// function literals are scanned afterwards from their parameters' type
// ranges.
func walkRangeFunc(fi *lint.FuncInfo, bounds *boundsIndex, hooks rangeHooks) {
	if fi.Decl.Body == nil {
		return
	}
	f := &rangeFlow{pkg: fi.Pkg, bounds: bounds, hooks: hooks, addrTaken: map[string]bool{}}
	f.flow = &flow[*rangeFact]{lat: f}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if id, ok := ast.Unparen(u.X).(*ast.Ident); ok {
				f.addrTaken[id.Name] = true
			}
		}
		return true
	})
	f.run(fi.Decl.Body, f.paramEnv(fi.Decl.Type.Params, bounds.funcs[fi.Key]), func(lit *ast.FuncLit) rangeEnv {
		return f.paramEnv(lit.Type.Params, nil)
	})
}

// paramEnv builds a function's entry environment: every integer
// parameter at its declared //etsqp:bounds interval (meet the type
// range) or at the type range. Literals carry no directives (fb nil).
func (f *rangeFlow) paramEnv(params *ast.FieldList, fb *funcBounds) rangeEnv {
	env := rangeEnv{}
	if params == nil {
		return env
	}
	for _, field := range params.List {
		for _, id := range field.Names {
			t := f.pkg.Info.TypeOf(field.Type)
			tr := typeIval(t)
			if tr == nil {
				continue
			}
			iv := tr
			if fb != nil {
				if d, ok := fb.params[id.Name]; ok && d.err == "" {
					if met, ok := meetIval(d.iv, tr); ok {
						iv = met
					}
				}
			}
			env[id.Name] = &rangeFact{iv: iv, t: t}
		}
	}
	return env
}

// join is the interval hull.
func (*rangeFlow) join(a, b *rangeFact) *rangeFact {
	return &rangeFact{iv: joinIval(a.iv, b.iv), t: a.t}
}

func (*rangeFlow) equal(a, b *rangeFact) bool { return equalIval(a.iv, b.iv) }

// widen jumps still-growing bounds straight to the type range so the
// fixpoint terminates; loop-condition narrowing recovers index bounds
// on the next pass.
func (*rangeFlow) widen(prev, next *rangeFact) *rangeFact {
	tr := typeIval(next.t)
	if tr == nil {
		tr = int64Range
	}
	lo, hi := next.iv.lo, next.iv.hi
	if next.iv.lo.Cmp(prev.iv.lo) < 0 {
		lo = tr.lo
	}
	if next.iv.hi.Cmp(prev.iv.hi) > 0 {
		hi = tr.hi
	}
	return &rangeFact{iv: newIval(lo, hi), t: next.t}
}

// pathOf returns the environment key of a variable or field reference,
// or "" when the expression is not a trackable path.
func (f *rangeFlow) pathOf(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return ""
		}
		if _, ok := f.pkg.Info.ObjectOf(e).(*types.Var); ok {
			return e.Name
		}
	case *ast.SelectorExpr:
		if _, ok := f.pkg.Info.ObjectOf(e.Sel).(*types.Var); !ok {
			return ""
		}
		base := f.pathOf(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// set records a fact for a path, dropping facts about its sub-paths.
func (f *rangeFlow) set(path string, iv *ival, t types.Type) {
	f.killPrefix(path)
	f.state[path] = &rangeFact{iv: iv, t: t}
}

func (f *rangeFlow) killPrefix(path string) {
	delete(f.state, path)
	pfx := path + "."
	for k := range f.state {
		if strings.HasPrefix(k, pfx) {
			delete(f.state, k)
		}
	}
}

// killOnCall drops facts a call could invalidate: every field path and
// every address-taken local.
func (f *rangeFlow) killOnCall() {
	for k := range f.state {
		if strings.ContainsRune(k, '.') || f.addrTaken[k] {
			delete(f.state, k)
		}
	}
}

// ---- statements ----

func (f *rangeFlow) leaf(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		f.eval(s.X)
	case *ast.AssignStmt:
		f.assign(s)
	case *ast.IncDecStmt:
		iv := f.eval(s.X)
		if path := f.pathOf(s.X); path != "" && iv != nil {
			one := pointIval(bigOne)
			var exact *ival
			if s.Tok == token.INC {
				exact = addIval(iv, one)
			} else {
				exact = subIval(iv, one)
			}
			t := f.pkg.Info.TypeOf(s.X)
			f.reportRaw(s.Pos(), token.ADD, types.ExprString(s.X)+s.Tok.String(), exact, t)
			f.set(path, clampToType(exact, t), t)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					t := f.pkg.Info.TypeOf(id)
					var iv *ival
					if i < len(vs.Values) {
						iv = f.eval(vs.Values[i])
					} else {
						// var x int64 — zero value.
						if typeIval(t) != nil {
							iv = pointIval(bigZero)
						}
					}
					if iv != nil && id.Name != "_" {
						f.set(id.Name, iv, t)
					}
				}
			}
		}
	case *ast.SendStmt:
		f.eval(s.Chan)
		f.eval(s.Value)
	case *ast.ReturnStmt:
		var results []*ival
		for _, r := range s.Results {
			results = append(results, f.eval(r))
		}
		if !f.silent && f.hooks.ret != nil {
			f.hooks.ret(s, results)
		}
	case *ast.DeferStmt:
		f.eval(s.Call) // a called literal escapes like any other
	case *ast.GoStmt:
		f.eval(s.Call)
	}
}

// assign interprets every assignment form, including op-assignments
// (desugared to the raw binary op) and checked-helper multi-assigns.
func (f *rangeFlow) assign(s *ast.AssignStmt) {
	// x op= y  →  x = x op y with the raw-op check.
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		op := assignOp(s.Tok)
		lhs := s.Lhs[0]
		liv, riv := f.eval(lhs), f.eval(s.Rhs[0])
		t := f.pkg.Info.TypeOf(lhs)
		if liv != nil && riv != nil {
			exact := f.binIval(op, liv, riv, t)
			desc := types.ExprString(lhs) + " " + s.Tok.String() + " " + types.ExprString(s.Rhs[0])
			f.reportRaw(s.Pos(), op, desc, exact, t)
			if path := f.pathOf(lhs); path != "" {
				f.set(path, clampToType(exact, t), t)
				return
			}
		}
		f.invalidateTarget(lhs)
		return
	}
	// x, ok := checkedHelper(a, b)
	if len(s.Rhs) == 1 && len(s.Lhs) == 2 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if iv, isChecked := f.checkedCall(call); isChecked {
				if id, ok := ast.Unparen(s.Lhs[1]).(*ast.Ident); ok && id.Name == "_" && !f.silent && f.hooks.blankOK != nil {
					callee := lint.CalleeFunc(f.pkg.Info, call)
					f.hooks.blankOK(s.Pos(), callee.Name())
				}
				f.assignTo(s.Lhs[0], iv)
				f.invalidateTarget(s.Lhs[1])
				return
			}
		}
	}
	if len(s.Rhs) == len(s.Lhs) {
		ivs := make([]*ival, len(s.Rhs))
		for i, r := range s.Rhs {
			ivs[i] = f.eval(r)
		}
		for i, l := range s.Lhs {
			f.assignTo(l, ivs[i])
		}
		return
	}
	// Multi-value from one call/map/assert: evaluate and drop to tops.
	for _, r := range s.Rhs {
		f.eval(r)
	}
	for _, l := range s.Lhs {
		f.invalidateTarget(l)
	}
}

func assignOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT
	}
	return token.ILLEGAL
}

func (f *rangeFlow) assignTo(l ast.Expr, iv *ival) {
	path := f.pathOf(l)
	t := f.pkg.Info.TypeOf(l)
	if path != "" && iv != nil && typeIval(t) != nil {
		f.set(path, clampToType(iv, t), t)
		return
	}
	f.invalidateTarget(l)
}

// invalidateTarget drops facts an untracked assignment could change.
func (f *rangeFlow) invalidateTarget(l ast.Expr) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name != "_" {
			f.killPrefix(l.Name)
		}
	case *ast.SelectorExpr:
		if path := f.pathOf(l); path != "" {
			f.killPrefix(path)
			return
		}
		f.eval(l.X)
	case *ast.IndexExpr:
		f.eval(l.X)
		f.eval(l.Index)
	case *ast.StarExpr:
		f.eval(l.X)
	}
}

// rangeVars assigns the loop variables' intervals: slice/array/
// string keys are non-negative ints; `range n` keys are [0, n-1];
// element values get their type range.
func (f *rangeFlow) rangeVars(s *ast.RangeStmt) {
	if s.Key != nil {
		iv := typeIval(f.pkg.Info.TypeOf(s.Key))
		if iv != nil {
			switch xt := f.pkg.Info.TypeOf(s.X).Underlying().(type) {
			case *types.Slice, *types.Array, *types.Basic:
				keys := newIval(bigZero, bigMaxInt64)
				if basic, ok := xt.(*types.Basic); ok && basic.Info()&types.IsInteger != 0 {
					// for i := range n
					if n := f.silentEval(s.X); n != nil && n.hi.Sign() > 0 {
						keys = newIval(bigZero, new(big.Int).Sub(n.hi, bigOne))
					}
				}
				if met, ok := meetIval(keys, iv); ok {
					iv = met
				}
			}
		}
		f.assignTo(s.Key, iv)
	}
	if s.Value != nil {
		f.assignTo(s.Value, typeIval(f.pkg.Info.TypeOf(s.Value)))
	}
}

// silentEval evaluates without firing hooks, for re-evaluations of
// expressions the walker has already visited.
func (f *rangeFlow) silentEval(e ast.Expr) *ival {
	saved := f.silent
	f.silent = true
	iv := f.eval(e)
	f.silent = saved
	return iv
}

// ---- narrowing ----

// cond refines the environment assuming cond evaluates to sense.
// It returns false when the assumption is contradictory (dead branch).
// Narrowing re-evaluates subexpressions the walker has already hooked,
// so it always runs silent.
func (f *rangeFlow) cond(cond ast.Expr, sense bool) bool {
	saved := f.silent
	f.silent = true
	ok := f.narrow0(cond, sense)
	f.silent = saved
	return ok
}

// tagCase pins a tracked integer tag to a single-value case.
func (f *rangeFlow) tagCase(tag, val ast.Expr) bool {
	path := f.pathOf(tag)
	cur, ok := f.state[path]
	if path == "" || !ok {
		return true
	}
	v := f.silentEval(val)
	if v == nil {
		return true
	}
	met, nonEmpty := meetIval(cur.iv, v)
	if nonEmpty {
		f.set(path, met, f.pkg.Info.TypeOf(tag))
	}
	return nonEmpty
}

func (f *rangeFlow) narrow0(cond ast.Expr, sense bool) bool {
	if cond == nil {
		return true
	}
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return f.narrow0(c.X, !sense)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if sense {
				return f.narrow0(c.X, true) && f.narrow0(c.Y, true)
			}
			return true // !(a && b): no single fact
		case token.LOR:
			if !sense {
				return f.narrow0(c.X, false) && f.narrow0(c.Y, false)
			}
			return true
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			return f.narrowCmp(c, sense)
		}
	}
	return true
}

// narrowCmp applies one comparison to both sides' paths.
func (f *rangeFlow) narrowCmp(c *ast.BinaryExpr, sense bool) bool {
	op := c.Op
	if !sense {
		op = negateCmp(op)
	}
	liv, riv := f.eval(c.X), f.eval(c.Y)
	if liv == nil || riv == nil {
		return true
	}
	ok := true
	if path := f.pathOf(c.X); path != "" {
		ok = f.applyCmp(path, f.pkg.Info.TypeOf(c.X), liv, op, riv) && ok
	}
	if path := f.pathOf(c.Y); path != "" {
		ok = f.applyCmp(path, f.pkg.Info.TypeOf(c.Y), riv, flipCmp(op), liv) && ok
	}
	return ok
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return op
}

// flipCmp mirrors a comparison: a < b  ⇔  b > a.
func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// applyCmp narrows `path` (currently cur) under `path op other`.
func (f *rangeFlow) applyCmp(path string, t types.Type, cur *ival, op token.Token, other *ival) bool {
	var constraint *ival
	switch op {
	case token.LSS:
		constraint = newIval(bigMinOf(), new(big.Int).Sub(other.hi, bigOne))
	case token.LEQ:
		constraint = newIval(bigMinOf(), other.hi)
	case token.GTR:
		constraint = newIval(new(big.Int).Add(other.lo, bigOne), bigMaxOf())
	case token.GEQ:
		constraint = newIval(other.lo, bigMaxOf())
	case token.EQL:
		constraint = other
	case token.NEQ:
		// Trim only a point endpoint.
		if other.isPoint() {
			out := cur
			if cur.lo.Cmp(other.lo) == 0 {
				out = newIval(new(big.Int).Add(cur.lo, bigOne), cur.hi)
			} else if cur.hi.Cmp(other.lo) == 0 {
				out = newIval(cur.lo, new(big.Int).Sub(cur.hi, bigOne))
			}
			if out.lo.Cmp(out.hi) > 0 {
				return false
			}
			f.set(path, out, t)
		}
		return true
	default:
		return true
	}
	met, nonEmpty := meetIval(cur, constraint)
	if !nonEmpty {
		return false
	}
	f.set(path, met, t)
	return true
}

// bigMinOf/bigMaxOf are the unbounded ends of one-sided constraints;
// the meet with the current interval restores finiteness.
func bigMinOf() *big.Int { return new(big.Int).Lsh(big.NewInt(-1), 200) }
func bigMaxOf() *big.Int { return new(big.Int).Lsh(bigOne, 200) }

// ---- expressions ----

func (f *rangeFlow) expr(e ast.Expr) { f.eval(e) }

// eval returns the interval of an expression, nil for non-integer
// expressions. Integer expressions always get a finite interval (worst
// case: the type range).
func (f *rangeFlow) eval(e ast.Expr) *ival {
	if e == nil {
		return nil
	}
	t := f.pkg.Info.TypeOf(e)
	if tv, ok := f.pkg.Info.Types[e]; ok && tv.Value != nil {
		if iv := constIval(tv.Value); iv != nil {
			return iv
		}
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return f.eval(e.X)
	case *ast.Ident:
		if fact, ok := f.state[e.Name]; ok {
			return fact.iv
		}
		return typeIval(t)
	case *ast.SelectorExpr:
		f.eval(e.X)
		if path := f.pathOf(e); path != "" {
			if fact, ok := f.state[path]; ok {
				return fact.iv
			}
		}
		if iv := f.fieldBound(e); iv != nil {
			return iv
		}
		return typeIval(t)
	case *ast.BinaryExpr:
		return f.binExpr(e, t)
	case *ast.UnaryExpr:
		return f.unaryExpr(e, t)
	case *ast.CallExpr:
		return f.callExpr(e, t)
	case *ast.IndexExpr:
		f.eval(e.X)
		f.eval(e.Index)
		return typeIval(t)
	case *ast.IndexListExpr:
		f.eval(e.X)
		for _, ix := range e.Indices {
			f.eval(ix)
		}
		return typeIval(t)
	case *ast.SliceExpr:
		f.eval(e.X)
		f.eval(e.Low)
		f.eval(e.High)
		f.eval(e.Max)
		return nil
	case *ast.StarExpr:
		f.eval(e.X)
		return typeIval(t)
	case *ast.TypeAssertExpr:
		f.eval(e.X)
		return typeIval(t)
	case *ast.FuncLit:
		f.enqueue(e)
		return nil
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			f.eval(el)
		}
		return nil
	case *ast.KeyValueExpr:
		f.eval(e.Key)
		f.eval(e.Value)
		return nil
	}
	return typeIval(t)
}

// fieldBound returns the declared //etsqp:bounds interval of a field
// selection, met with the field's type range.
func (f *rangeFlow) fieldBound(sel *ast.SelectorExpr) *ival {
	key, ok := lint.FieldOf(f.pkg.Info.Selections[sel])
	if !ok {
		return nil
	}
	d, ok := f.bounds.fields[key]
	if !ok || d.err != "" {
		return nil
	}
	tr := typeIval(f.pkg.Info.TypeOf(sel))
	if tr == nil {
		return d.iv
	}
	if met, nonEmpty := meetIval(d.iv, tr); nonEmpty {
		return met
	}
	return tr
}

func (f *rangeFlow) binExpr(e *ast.BinaryExpr, t types.Type) *ival {
	liv := f.eval(e.X)
	riv := f.eval(e.Y)
	switch e.Op {
	case token.LAND, token.LOR, token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return nil // boolean
	}
	if liv == nil || riv == nil {
		return typeIval(t)
	}
	exact := f.binIval(e.Op, liv, riv, t)
	desc := types.ExprString(e)
	f.reportRaw(e.OpPos, e.Op, desc, exact, t)
	return clampToType(exact, t)
}

// binIval evaluates one binary op exactly over intervals; nil means the
// op's result is unmodeled (caller falls back to the type range).
func (f *rangeFlow) binIval(op token.Token, a, b *ival, t types.Type) *ival {
	switch op {
	case token.ADD:
		return addIval(a, b)
	case token.SUB:
		return subIval(a, b)
	case token.MUL:
		return mulIval(a, b)
	case token.QUO:
		return quoIval(a, b)
	case token.REM:
		return remIval(a, b)
	case token.SHL:
		return shlIval(a, b)
	case token.SHR:
		return shrIval(a, b)
	case token.AND, token.OR, token.XOR, token.AND_NOT:
		return bitwiseIval(op, a, b)
	}
	return nil
}

// reportRaw fires the raw-op hook for overflow-relevant operators when
// the exact result is known.
func (f *rangeFlow) reportRaw(pos token.Pos, op token.Token, desc string, exact *ival, t types.Type) {
	if f.silent || f.hooks.rawOp == nil || exact == nil {
		return
	}
	switch op {
	case token.ADD, token.SUB, token.MUL, token.SHL, token.QUO:
		f.hooks.rawOp(pos, op, desc, exact, t)
	}
}

// clampToType clamps an exact interval back into the type's value range
// (the wrapped value is *somewhere* in the range; the raw-op hook has
// already seen the exact interval).
func clampToType(exact *ival, t types.Type) *ival {
	tr := typeIval(t)
	if tr == nil {
		return exact
	}
	if exact == nil {
		return tr
	}
	if met, nonEmpty := meetIval(exact, tr); nonEmpty && exact.subsetOf(tr) {
		return met
	}
	return tr
}

func (f *rangeFlow) unaryExpr(e *ast.UnaryExpr, t types.Type) *ival {
	x := f.eval(e.X)
	switch e.Op {
	case token.SUB:
		if x == nil {
			return typeIval(t)
		}
		exact := negIval(x)
		f.reportRaw(e.OpPos, token.SUB, types.ExprString(e), exact, t)
		return clampToType(exact, t)
	case token.ADD:
		return x
	case token.XOR: // ^x == -x - 1
		if x == nil {
			return typeIval(t)
		}
		return clampToType(subIval(negIval(x), pointIval(bigOne)), t)
	}
	return typeIval(t)
}

func (f *rangeFlow) callExpr(c *ast.CallExpr, t types.Type) *ival {
	// Conversion: T(x).
	if tv, ok := f.pkg.Info.Types[ast.Unparen(c.Fun)]; ok && tv.IsType() && len(c.Args) == 1 {
		x := f.eval(c.Args[0])
		tr := typeIval(t)
		if tr == nil {
			return nil
		}
		if x != nil && x.subsetOf(tr) {
			return x
		}
		return tr // may wrap: all we know is the target range
	}
	// Builtins.
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if b, isBuiltin := f.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return f.builtinCall(b.Name(), c, t)
		}
	}
	fn := lint.CalleeFunc(f.pkg.Info, c)
	if fn != nil {
		if _, isChecked := f.bounds.checked[fn.FullName()]; isChecked {
			// Checked helpers mutate nothing; their tuple results are
			// modeled at the assignment. checkedCall evaluates the
			// arguments (with hooks) exactly once.
			if iv, ok := f.checkedCall(c); ok && !isTuple(t) {
				return iv
			}
			return nil
		}
	}
	for _, a := range c.Args {
		f.eval(a)
	}
	if lit, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
		f.enqueue(lit)
		f.killOnCall()
		return typeIval(t)
	}
	f.eval(c.Fun)
	if !f.silent && f.hooks.call != nil {
		env := cloneState(f.state)
		f.hooks.call(c, func(i int) *ival {
			saved := f.state
			f.state = env
			iv := f.silentEval(c.Args[i])
			f.state = saved
			return iv
		})
	}
	if isTerminator(f.pkg.Info, c) {
		f.terminated = true
		return nil
	}
	f.killOnCall()
	// Declared return bounds apply to the first result.
	if fn != nil && !isTuple(t) {
		if fb, ok := f.bounds.funcs[fn.FullName()]; ok && fb.ret != nil && fb.ret.err == "" {
			if met, nonEmpty := meetIval(fb.ret.iv, orFull(typeIval(t))); nonEmpty {
				return met
			}
		}
	}
	return typeIval(t)
}

func isTuple(t types.Type) bool {
	_, ok := t.(*types.Tuple)
	return ok
}

func orFull(iv *ival) *ival {
	if iv == nil {
		return int64Range
	}
	return iv
}

func (f *rangeFlow) builtinCall(name string, c *ast.CallExpr, t types.Type) *ival {
	ivs := make([]*ival, len(c.Args))
	for i, a := range c.Args {
		ivs[i] = f.eval(a)
	}
	if isTerminator(f.pkg.Info, c) {
		f.terminated = true
		return nil
	}
	switch name {
	case "len", "cap":
		return newIval(bigZero, bigMaxInt64)
	case "min", "max":
		var out *ival
		for _, iv := range ivs {
			if iv == nil {
				return typeIval(t)
			}
			if out == nil {
				out = iv
			} else if name == "min" {
				lo, hi := out.lo, out.hi
				if iv.lo.Cmp(lo) < 0 {
					lo = iv.lo
				}
				if iv.hi.Cmp(hi) < 0 {
					hi = iv.hi
				}
				out = newIval(lo, hi)
			} else {
				lo, hi := out.lo, out.hi
				if iv.lo.Cmp(lo) > 0 {
					lo = iv.lo
				}
				if iv.hi.Cmp(hi) > 0 {
					hi = iv.hi
				}
				out = newIval(lo, hi)
			}
		}
		return out
	case "delete", "copy", "append", "clear":
		for _, a := range c.Args {
			f.invalidateTarget(a)
		}
		return typeIval(t)
	}
	return typeIval(t)
}

// checkedCall models a call to an //etsqp:checked helper: the first
// result is the exact operation (for "add"/"mul") or the declared
// return bounds, clamped to int64 — the runtime check guarantees the
// value is only used when it stayed in range.
func (f *rangeFlow) checkedCall(c *ast.CallExpr) (*ival, bool) {
	fn := lint.CalleeFunc(f.pkg.Info, c)
	if fn == nil {
		return nil, false
	}
	kind, ok := f.bounds.checked[fn.FullName()]
	if !ok {
		return nil, false
	}
	var iv *ival
	switch kind {
	case "add", "mul":
		if len(c.Args) == 2 {
			a, b := f.eval(c.Args[0]), f.eval(c.Args[1])
			if a != nil && b != nil {
				var exact *ival
				if kind == "add" {
					exact = addIval(a, b)
				} else {
					exact = mulIval(a, b)
				}
				if met, nonEmpty := meetIval(exact, int64Range); nonEmpty {
					iv = met
				} else {
					iv = pointIval(bigZero) // check always fails
				}
			}
		}
	default:
		for _, a := range c.Args {
			f.eval(a)
		}
		if fb, ok := f.bounds.funcs[fn.FullName()]; ok && fb.ret != nil && fb.ret.err == "" {
			if met, nonEmpty := meetIval(fb.ret.iv, int64Range); nonEmpty {
				iv = met
			}
		}
	}
	if iv == nil {
		iv = int64Range
	}
	// On check failure the helper returns zero; the ok bool is untracked,
	// so the modeled value must cover both outcomes.
	iv = joinIval(iv, pointIval(bigZero))
	return iv, true
}

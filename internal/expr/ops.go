package expr

import (
	"errors"
)

// CmpOp is a comparison operator of a filter predicate.
type CmpOp int

// Comparison operators.
const (
	OpLT CmpOp = iota
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

// String returns the SQL spelling.
func (o CmpOp) String() string {
	switch o {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	}
	return "?"
}

// Eval applies the operator.
func (o CmpOp) Eval(v, c int64) bool {
	switch o {
	case OpLT:
		return v < c
	case OpLE:
		return v <= c
	case OpGT:
		return v > c
	case OpGE:
		return v >= c
	case OpEQ:
		return v == c
	case OpNE:
		return v != c
	}
	return false
}

// Filter produces the validity mask of `op(v, c)` over a column — the
// sigma_theta operator generating mask vectors.
func Filter(col []int64, op CmpOp, c int64) *Mask {
	m := NewMask(len(col))
	for i, v := range col {
		if op.Eval(v, c) {
			m.Set(i)
		}
	}
	return m
}

// RangeMask builds the validity mask of c1 <= v <= c2 over a column (the
// mask-vector generation of Section VI-B). The engine's aggregate scans
// filter and fold in one pass instead (engine.partialAgg.foldRange); the
// mask form serves callers that need the selection itself.
func RangeMask(col []int64, c1, c2 int64) *Mask {
	m := NewMask(len(col))
	for i, v := range col {
		if v >= c1 && v <= c2 {
			m.Set(i)
		}
	}
	return m
}

// TimeRangeFilter exploits time order: timestamps are sorted, so the
// valid rows for t1 <= T <= t2 form one contiguous range found by binary
// search — no per-row comparison (the ordered-data shortcut of Example 2).
func TimeRangeFilter(ts []int64, t1, t2 int64) *Mask {
	m := NewMask(len(ts))
	lo, hi := TimeRangeBounds(ts, t1, t2)
	m.SetRange(lo, hi)
	return m
}

// TimeRangeBounds returns the half-open row range [lo, hi) of timestamps
// within [t1, t2]. The binary searches are hand-rolled rather than
// sort.Search: the closures sort.Search takes capture ts and the bound,
// which escapes them to the heap, and this sits on the per-batch cursor
// path where steady state must stay allocation-free.
func TimeRangeBounds(ts []int64, t1, t2 int64) (lo, hi int) {
	// lo = first index with ts[i] >= t1.
	i, j := 0, len(ts)
	for i < j {
		h := int(uint(i+j) >> 1)
		if ts[h] < t1 {
			i = h + 1
		} else {
			j = h
		}
	}
	lo = i
	// hi = first index with ts[i] > t2; rows before lo are < t1 <= t2,
	// so the search can start at lo.
	i, j = lo, len(ts)
	for i < j {
		h := int(uint(i+j) >> 1)
		if ts[h] <= t2 {
			i = h + 1
		} else {
			j = h
		}
	}
	return lo, i
}

// MaskedSum computes f(e, mask) for f = SUM, returning the sum of valid
// values and the valid count.
func MaskedSum(col []int64, m *Mask) (sum int64, count int) {
	for i := m.NextSet(0); i >= 0; i = m.NextSet(i + 1) {
		sum += col[i]
		count++
	}
	return sum, count
}

// MaskedMinMax returns min/max over valid values; ok is false when the
// mask is empty.
func MaskedMinMax(col []int64, m *Mask) (minV, maxV int64, ok bool) {
	i := m.NextSet(0)
	if i < 0 {
		return 0, 0, false
	}
	minV, maxV = col[i], col[i]
	for i = m.NextSet(i + 1); i >= 0; i = m.NextSet(i + 1) {
		if col[i] < minV {
			minV = col[i]
		}
		if col[i] > maxV {
			maxV = col[i]
		}
	}
	return minV, maxV, true
}

// NaturalJoin produces, for two sorted timestamp columns, the pairs of
// row indices with equal timestamps (Definition 2's join masks). The
// returned slices are parallel: left[i] joins right[i].
func NaturalJoin(lt, rt []int64) (left, right []int) {
	i, j := 0, 0
	for i < len(lt) && j < len(rt) {
		switch {
		case lt[i] < rt[j]:
			i++
		case lt[i] > rt[j]:
			j++
		default:
			left = append(left, i)
			right = append(right, j)
			i++
			j++
		}
	}
	return left, right
}

// JoinMasks converts NaturalJoin output into validity masks for both
// sides (mask_1 = [-1 if t1[i] = t2[j] else 0] in the paper's notation).
func JoinMasks(lt, rt []int64) (lm, rm *Mask) {
	lm, rm = NewMask(len(lt)), NewMask(len(rt))
	left, right := NaturalJoin(lt, rt)
	for k := range left {
		lm.Set(left[k])
		rm.Set(right[k])
	}
	return lm, rm
}

// Row is one output tuple of a row-returning query.
type Row struct {
	Time   int64
	Values []int64
}

// MergeByTime implements series concatenation e1 ∘ e2: the union of two
// series ordered by time. Equal timestamps merge into one row with both
// values (later columns appended); a missing side yields a NULL marker.
const NullValue = int64(-1 << 62) // sentinel for absent values in merges

// MergeByTime merges two (time, value) columns into time-ordered rows.
func MergeByTime(lt, lv, rt, rv []int64) []Row {
	out := make([]Row, 0, len(lt)+len(rt))
	i, j := 0, 0
	for i < len(lt) || j < len(rt) {
		switch {
		case j >= len(rt) || (i < len(lt) && lt[i] < rt[j]):
			out = append(out, Row{Time: lt[i], Values: []int64{lv[i], NullValue}})
			i++
		case i >= len(lt) || rt[j] < lt[i]:
			out = append(out, Row{Time: rt[j], Values: []int64{NullValue, rv[j]}})
			j++
		default:
			out = append(out, Row{Time: lt[i], Values: []int64{lv[i], rv[j]}})
			i++
			j++
		}
	}
	return out
}

// Window is one sliding-window instance w(Tmin + k·ΔT, ΔT), covering
// [Start, End).
type Window struct {
	Index int
	Start int64
	End   int64
}

// SlidingWindows enumerates the window instances of G_sw(Tmin, ΔT) up to
// tMax (inclusive), per Definition 2: k >= 0 and Tmin + k·ΔT <= tMax.
// The windows tumble: each starts where the previous ended.
func SlidingWindows(tMin, dT, tMax int64) ([]Window, error) {
	return SlidingWindowsHop(tMin, dT, dT, tMax)
}

// MaxWindowInstances bounds the number of window instances a single
// query may enumerate. Per-window partial state is materialized per
// worker, so an unbounded instance count (a tiny slide over a huge time
// range) would turn one query into an unbounded allocation.
const MaxWindowInstances = 1 << 16

// SlidingWindowsHop enumerates the instances of a hopping window
// specification: window k covers [Tmin + k·slide, Tmin + k·slide + width)
// for k >= 0 while the start does not exceed tMax. slide < width yields
// overlapping windows (a value belongs to several), slide = width
// tumbles, and slide > width samples with gaps. The instance count is
// capped at MaxWindowInstances.
func SlidingWindowsHop(tMin, width, slide, tMax int64) ([]Window, error) {
	if width <= 0 {
		return nil, errors.New("expr: window width must be positive")
	}
	if slide <= 0 {
		return nil, errors.New("expr: window slide must be positive")
	}
	if tMax < tMin {
		return nil, nil
	}
	if n := (tMax-tMin)/slide + 1; n > MaxWindowInstances {
		return nil, errors.New("expr: too many window instances")
	}
	var out []Window
	for k := int64(0); ; k++ {
		start := tMin + k*slide
		if start > tMax {
			break
		}
		out = append(out, Window{Index: int(k), Start: start, End: start + width})
	}
	return out, nil
}

// BitExtend implements Γ_ω→ω′ on already-unpacked small values: it is the
// identity on int64 columns here because the pipeline widens during
// unpacking; kept for expression completeness and used by tests.
func BitExtend(col []int64) []int64 { return col }

// Fraction returns the position-based fraction e[pos1:pos2].
func Fraction(col []int64, pos1, pos2 int) []int64 {
	if pos1 < 0 {
		pos1 = 0
	}
	if pos2 > len(col) {
		pos2 = len(col)
	}
	if pos1 >= pos2 {
		return nil
	}
	return col[pos1:pos2]
}

// AddColumns is the element-wise arithmetic e1 + e2 used by Q4
// (ts1.A + ts2.A on joined rows).
func AddColumns(a, b []int64) ([]int64, error) {
	if len(a) != len(b) {
		return nil, errors.New("expr: column length mismatch")
	}
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

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

// MaskedSum computes f(e, mask) for f = SUM, returning the sum of valid
// values and the valid count.
func MaskedSum(col []int64, m *Mask) (sum int64, count int) {
	for i := m.NextSet(0); i >= 0; i = m.NextSet(i + 1) {
		sum += col[i]
		count++
	}
	return sum, count
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

package baseline

import (
	"math/big"
	"sort"

	"etsqp/internal/expr"
)

// This file holds the decode-then-compute oracles for the multi-series
// and windowed operators: deliberately naive implementations (per-window
// re-scan, timestamp-set union, nested-loop join) that share no code
// with the engine's shared-segment and streaming-cursor paths, so the
// differential and fuzz tests in differential_test.go can require
// bit-for-bit agreement between the two routes.

// ScalarWindow is one window instance's decode-then-compute aggregates
// over the covered rows [Start, End).
type ScalarWindow struct {
	Start, End int64
	Sum        int64    // valid when !Overflow
	SumSq      *big.Int // Σv², exact
	Overflow   bool     // Σv leaves int64: SUM, AVG and VAR are the Section VI-C error
	Count      int64
	Min, Max   int64 // valid when Count > 0
	First      int64 // value at the earliest covered timestamp
	Last       int64 // value at the latest covered timestamp
}

// ScalarWindowed enumerates the hopping windows w_k = [anchor + k·slide,
// anchor + k·slide + width) for k >= 0 while the start does not exceed
// tMax, and aggregates each window with a full re-scan of the rows — the
// O(windows × rows) route the engine's shared segments avoid. Σv and Σv²
// are exact big-integer sums.
func ScalarWindowed(ts, vals []int64, anchor, width, slide, tMax int64) []ScalarWindow {
	if width <= 0 || slide <= 0 {
		return nil
	}
	var out []ScalarWindow
	x := new(big.Int)
	for k := int64(0); ; k++ {
		start := anchor + k*slide
		if start > tMax {
			break
		}
		w := ScalarWindow{Start: start, End: start + width, SumSq: new(big.Int)}
		sum := new(big.Int)
		for i := range ts {
			if ts[i] < w.Start || ts[i] >= w.End {
				continue
			}
			v := vals[i]
			if w.Count == 0 {
				w.Min, w.Max = v, v
				w.First = v
			} else {
				if v < w.Min {
					w.Min = v
				}
				if v > w.Max {
					w.Max = v
				}
			}
			sum.Add(sum, x.SetInt64(v))
			w.SumSq.Add(w.SumSq, x.Mul(x, x))
			w.Last = v
			w.Count++
		}
		w.Sum, w.Overflow = sum.Int64(), !sum.IsInt64()
		out = append(out, w)
	}
	return out
}

// MergedRow is one row of the oracle's series concatenation: a timestamp
// with the value from each side, or expr.NullValue for an absent side.
type MergedRow struct {
	Time int64
	L, R int64
}

// ScalarConcat computes the time-ordered concatenation of two decoded
// series by unioning the timestamp sets, sorting, and looking each
// timestamp up on both sides — no merge walk shared with the engine.
// Timestamps must be unique within each side.
func ScalarConcat(lts, lvs, rts, rvs []int64) []MergedRow {
	lm := make(map[int64]int64, len(lts))
	for i, t := range lts {
		lm[t] = lvs[i]
	}
	rm := make(map[int64]int64, len(rts))
	for i, t := range rts {
		rm[t] = rvs[i]
	}
	set := make(map[int64]struct{}, len(lm)+len(rm))
	for t := range lm {
		set[t] = struct{}{}
	}
	for t := range rm {
		set[t] = struct{}{}
	}
	times := make([]int64, 0, len(set))
	for t := range set {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]MergedRow, len(times))
	for i, t := range times {
		row := MergedRow{Time: t, L: expr.NullValue, R: expr.NullValue}
		if v, ok := lm[t]; ok {
			row.L = v
		}
		if v, ok := rm[t]; ok {
			row.R = v
		}
		out[i] = row
	}
	return out
}

// JoinedRow is one row of the oracle's natural join.
type JoinedRow struct {
	Time, L, R int64
}

// ScalarJoin computes the natural (time-aligned) join with an O(n·m)
// nested loop over both decoded series.
func ScalarJoin(lts, lvs, rts, rvs []int64) []JoinedRow {
	var out []JoinedRow
	for i := range lts {
		for j := range rts {
			if lts[i] == rts[j] {
				out = append(out, JoinedRow{Time: lts[i], L: lvs[i], R: rvs[j]})
			}
		}
	}
	return out
}

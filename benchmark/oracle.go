package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// querySpec is one generated query: the SQL text the program receives
// and the row selection the oracle evaluates come from the same value,
// so they cannot drift apart.
type querySpec struct {
	series string
	class  string   // request class, for per-class reporting
	aggs   []string // SUM COUNT AVG MIN MAX VAR
	hasT1  bool     // TIME >= t1
	hasT2  bool     // TIME <= t2
	t1, t2 int64
	hasGT  bool // A > gt
	hasLT  bool // A < lt
	gt, lt int64
	// Tumbling windows SW(winAnchor, winWidth) when winWidth > 0.
	winAnchor, winWidth int64
}

func (q *querySpec) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, a := range q.aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a + "(A)")
	}
	b.WriteString(" FROM " + q.series)
	sep := " WHERE "
	pred := func(on bool, col, op string, v int64) {
		if on {
			b.WriteString(sep + col + " " + op + " " + strconv.FormatInt(v, 10))
			sep = " AND "
		}
	}
	pred(q.hasT1, "TIME", ">=", q.t1)
	pred(q.hasT2, "TIME", "<=", q.t2)
	pred(q.hasGT, "A", ">", q.gt)
	pred(q.hasLT, "A", "<", q.lt)
	if q.winWidth > 0 {
		fmt.Fprintf(&b, " SW(%d, %d)", q.winAnchor, q.winWidth)
	}
	return b.String()
}

// answer is a query result reduced to what the benchmark checks: the
// labelled aggregates, or one (value, count) per window.
type answer struct {
	aggs map[string]float64
	wins []winAnswer
}

type winAnswer struct {
	value float64
	count int64
}

// fold is the oracle's accumulator: a plain loop, one row at a time.
type fold struct {
	sum, count, min, max int64
	sumSq                float64
}

func (f *fold) add(v int64) {
	if f.count == 0 || v < f.min {
		f.min = v
	}
	if f.count == 0 || v > f.max {
		f.max = v
	}
	f.sum += v
	f.sumSq += float64(v) * float64(v)
	f.count++
}

func (f *fold) value(agg string) float64 {
	switch agg {
	case "SUM":
		return float64(f.sum)
	case "COUNT":
		return float64(f.count)
	case "MIN":
		return float64(f.min)
	case "MAX":
		return float64(f.max)
	}
	if f.count == 0 {
		return 0
	}
	mean := float64(f.sum) / float64(f.count)
	if agg == "AVG" {
		return mean
	}
	return f.sumSq/float64(f.count) - mean*mean // VAR
}

func (q *querySpec) keeps(v int64) bool {
	return (!q.hasGT || v > q.gt) && (!q.hasLT || v < q.lt)
}

// rows resolves the query's time bounds to the half-open row range of
// the column.
func (q *querySpec) rows(c *column) (lo, hi int) {
	lo, hi = 0, len(c.ts)
	if q.hasT1 {
		lo = sort.Search(len(c.ts), func(i int) bool { return c.ts[i] >= q.t1 })
	}
	if q.hasT2 {
		hi = sort.Search(len(c.ts), func(i int) bool { return c.ts[i] > q.t2 })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// expect evaluates the query over the raw column with scalar loops and
// returns the answer plus the number of rows the time range covers
// (the tuples a completed query is credited with).
func (q *querySpec) expect(c *column) (answer, int64) {
	lo, hi := q.rows(c)
	if q.winWidth == 0 {
		var f fold
		for i := lo; i < hi; i++ {
			if q.keeps(c.vals[i]) {
				f.add(c.vals[i])
			}
		}
		a := answer{aggs: make(map[string]float64, len(q.aggs))}
		for _, agg := range q.aggs {
			a.aggs[agg+"(A)"] = f.value(agg)
		}
		return a, int64(hi - lo)
	}
	// Window k covers [anchor+k·w, anchor+(k+1)·w) for every start up to
	// the last timestamp the query can see.
	last := c.ts[len(c.ts)-1]
	if q.hasT2 && q.t2 < last {
		last = q.t2
	}
	var a answer
	if last < q.winAnchor {
		return a, int64(hi - lo)
	}
	folds := make([]fold, (last-q.winAnchor)/q.winWidth+1)
	for i := lo; i < hi; i++ {
		if c.ts[i] >= q.winAnchor && q.keeps(c.vals[i]) {
			folds[(c.ts[i]-q.winAnchor)/q.winWidth].add(c.vals[i])
		}
	}
	a.wins = make([]winAnswer, len(folds))
	for k := range folds {
		a.wins[k] = winAnswer{value: folds[k].value(q.aggs[0]), count: folds[k].count}
	}
	return a, int64(hi - lo)
}

// same compares an aggregate with its expected value. Sums, counts,
// extrema and AVG (one division of two exact integers) must match
// bit for bit; VAR subtracts float sums whose association order the
// engine may choose, so it gets a relative tolerance.
func same(label string, got, want float64) bool {
	if got == want {
		return true
	}
	return strings.HasPrefix(label, "VAR(") && math.Abs(got-want) <= 1e-6*math.Abs(want)
}

// matches reports whether a result agrees with the oracle's answer.
func (want *answer) matches(got *answer) bool {
	if len(got.aggs) != len(want.aggs) || len(got.wins) != len(want.wins) {
		return false
	}
	for k, w := range want.aggs {
		g, ok := got.aggs[k]
		if !ok || !same(k, g, w) {
			return false
		}
	}
	for i, w := range want.wins {
		if got.wins[i] != w {
			return false
		}
	}
	return true
}

// parseAnswer reads the text /query renders (cli.RenderResult): one
// "label = value" line per aggregate or one "window k [s, e): v (n
// points)" line per window, then a stats line it ignores.
func parseAnswer(body string) (answer, error) {
	var a answer
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "window "):
			colon := strings.Index(line, "): ")
			open := strings.LastIndex(line, " (")
			if colon < 0 || open < colon {
				return a, fmt.Errorf("bad window line %q", line)
			}
			v, err := strconv.ParseFloat(line[colon+3:open], 64)
			if err != nil {
				return a, err
			}
			n, err := strconv.ParseInt(strings.TrimSuffix(line[open+2:], " points)"), 10, 64)
			if err != nil {
				return a, err
			}
			a.wins = append(a.wins, winAnswer{value: v, count: n})
		case strings.Contains(line, " = "):
			k, vs, _ := strings.Cut(line, " = ")
			v, err := strconv.ParseFloat(vs, 64)
			if err != nil {
				return a, err
			}
			if a.aggs == nil {
				a.aggs = map[string]float64{}
			}
			a.aggs[k] = v
		}
	}
	if a.aggs == nil && a.wins == nil {
		return a, fmt.Errorf("no result in %q", body)
	}
	return a, nil
}

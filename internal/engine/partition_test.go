package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
)

// checkCuts asserts the cutPages invariants: disjoint, contiguous,
// covering [t1, t2] exactly.
func checkCuts(t *testing.T, cuts [][2]int64, t1, t2 int64) {
	t.Helper()
	if len(cuts) == 0 {
		t.Fatalf("no cuts for [%d,%d]", t1, t2)
	}
	if cuts[0][0] != t1 || cuts[len(cuts)-1][1] != t2 {
		t.Fatalf("cuts %v do not cover [%d,%d]", cuts, t1, t2)
	}
	for i, c := range cuts {
		if c[0] > c[1] {
			t.Fatalf("cut %d inverted: %v", i, c)
		}
		if i > 0 && c[0] != cuts[i-1][1]+1 {
			t.Fatalf("gap or overlap between %v and %v", cuts[i-1], c)
		}
	}
}

// TestTimeCutsSinglePage: a series that fits in one page always yields a
// single cut, whatever parallelism is requested.
func TestTimeCutsSinglePage(t *testing.T) {
	ts, vals := testData(500, 7, true)
	st := storeFor(t, ModeETSQP, ts, vals, 1024)
	ser, _ := st.Series("ts")
	t1, t2 := ts[0], ts[len(ts)-1]
	for _, n := range []int{1, 2, 8, 100} {
		cuts := cutPages(ser.PagesInRange(t1, t2), t1, t2, n)
		if len(cuts) != 1 {
			t.Fatalf("n=%d: want 1 cut for single page, got %v", n, cuts)
		}
		checkCuts(t, cuts, t1, t2)
	}
}

// TestTimeCutsMorePartsThanPages: n clamps to the page count, and the
// cuts still tile the range.
func TestTimeCutsMorePartsThanPages(t *testing.T) {
	ts, vals := testData(5_000, 9, false)
	st := storeFor(t, ModeETSQP, ts, vals, 1000) // 5 pages
	ser, _ := st.Series("ts")
	t1, t2 := ts[0], ts[len(ts)-1]
	pages := ser.PagesInRange(t1, t2)
	for _, n := range []int{len(pages) + 1, 64, 1 << 20} {
		cuts := cutPages(ser.PagesInRange(t1, t2), t1, t2, n)
		if len(cuts) > len(pages) {
			t.Fatalf("n=%d: %d cuts exceed %d pages", n, len(cuts), len(pages))
		}
		checkCuts(t, cuts, t1, t2)
		// Every interior boundary must sit just before a page start, so
		// no cut splits a page.
		starts := map[int64]bool{}
		for _, p := range pages {
			starts[p.StartTime()] = true
		}
		for i := 0; i < len(cuts)-1; i++ {
			if !starts[cuts[i][1]+1] {
				t.Fatalf("n=%d: boundary %d not at a page start", n, cuts[i][1])
			}
		}
	}
}

// TestTimeCutsAdjacentPageStarts drives the cut-collision guard: one-row
// pages with consecutive timestamps make each cut land exactly on the
// current range start (cut == start, the boundary of the `cut < start`
// guard), so every range degenerates to a single point. The cuts must
// stay disjoint and contiguous rather than skipping or overlapping.
func TestTimeCutsAdjacentPageStarts(t *testing.T) {
	const n = 16
	ts := make([]int64, n)
	vals := make([]int64, n)
	for i := range ts {
		ts[i] = 1_000 + int64(i) // adjacent pages: starts differ by 1
		vals[i] = int64(i)
	}
	st := storeFor(t, ModeETSQP, ts, vals, 1) // one row per page
	ser, _ := st.Series("ts")
	t1, t2 := ts[0], ts[len(ts)-1]
	cuts := cutPages(ser.PagesInRange(t1, t2), t1, t2, n)
	if len(cuts) != n {
		t.Fatalf("want %d single-point cuts, got %d: %v", n, len(cuts), cuts)
	}
	checkCuts(t, cuts, t1, t2)
	for i, c := range cuts {
		if c[0] != c[1] || c[0] != ts[i] {
			t.Fatalf("cut %d = %v, want single point {%d,%d}", i, c, ts[i], ts[i])
		}
	}
	// A partial request still tiles without colliding.
	checkCuts(t, cutPages(ser.PagesInRange(t1, t2), t1, t2, 5), t1, t2)
	// Starting mid-series: the first range begins at t1 even though the
	// first cut candidate sits only one tick later.
	checkCuts(t, cutPages(ser.PagesInRange(ts[3], ts[12]), ts[3], ts[12], 7), ts[3], ts[12])
}

// TestTimeCutsEmptyRange: a range past the data (no pages) falls back to
// the identity cut, as does an inverted or degenerate range.
func TestTimeCutsEmptyRange(t *testing.T) {
	ts, vals := testData(2_000, 11, true)
	st := storeFor(t, ModeETSQP, ts, vals, 500)
	ser, _ := st.Series("ts")
	t2 := ts[len(ts)-1]
	for _, r := range [][2]int64{
		{t2 + 100, t2 + 200}, // beyond the data
		{0, ts[0] - 1},       // before the data
		{ts[0], ts[0]},       // degenerate single instant
	} {
		cuts := cutPages(ser.PagesInRange(r[0], r[1]), r[0], r[1], 8)
		checkCuts(t, cuts, r[0], r[1])
		if r[0] == r[1] && len(cuts) != 1 {
			t.Fatalf("degenerate range: %v", cuts)
		}
	}
}

// TestRunRangedClaims: runRanged preserves range order in its output,
// runs every range exactly once even with more ranges than workers,
// hands fn each range's own index, and propagates the first error.
func TestRunRangedClaims(t *testing.T) {
	e := New(storeFor(t, ModeETSQP, []int64{1, 2}, []int64{1, 2}, 2), ModeETSQP)
	e.Workers = 3
	ranges := make([][2]int64, 50)
	for i := range ranges {
		ranges[i] = [2]int64{int64(i) * 10, int64(i)*10 + 9}
	}
	var calls atomic.Int64
	rows, err := e.runRanged(ranges, nil, func(i int, t1, t2 int64) ([]Row, error) {
		calls.Add(1)
		if ranges[i] != [2]int64{t1, t2} {
			return nil, fmt.Errorf("index %d handed range [%d, %d]", i, t1, t2)
		}
		return []Row{{Time: t1}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(ranges)) {
		t.Fatalf("fn ran %d times, want %d", got, len(ranges))
	}
	if len(rows) != len(ranges) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Time != int64(i)*10 {
			t.Fatalf("row %d out of order: %+v", i, r)
		}
	}
	boom := errors.New("boom")
	_, err = e.runRanged(ranges, nil, func(_ int, t1, t2 int64) ([]Row, error) {
		if t1 == 200 {
			return nil, fmt.Errorf("range %d: %w", t1, boom)
		}
		return nil, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestRowClockRowMatchesSearch: on a constant clock, rowClock.row's
// arithmetic names the row a binary search over the same timestamps
// finds, for times before, between, on and after the rows, and near the
// int64 edges.
func TestRowClockRowMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		c := rowClock{first: rng.Int63n(1<<40) - 1<<39, interval: 1 + rng.Int63n(5000)}
		if trial%10 == 0 {
			c.first = math.MinInt64/2 + rng.Int63n(1000)
		}
		ts := make([]int64, n)
		for i := range ts {
			ts[i] = c.at(i)
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		probes := []int64{math.MinInt64, math.MaxInt64, c.first - 1, c.first, ts[n-1], ts[n-1] + 1}
		for k := 0; k < 20; k++ {
			probes = append(probes, c.first+rng.Int63n(int64(n+2)*c.interval)-c.interval)
		}
		for _, tt := range probes {
			want := lo + sort.Search(hi-lo, func(i int) bool { return ts[lo+i] >= tt })
			if got := c.row(tt, lo, hi); got != want {
				t.Fatalf("clock %+v rows [%d, %d): row(%d) = %d, search %d", c, lo, hi, tt, got, want)
			}
		}
	}
}

package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
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
	rows, err := e.runRanged(ranges, nil, func(i int, t1, t2 int64) (rowCols, error) {
		calls.Add(1)
		if ranges[i] != [2]int64{t1, t2} {
			return rowCols{}, fmt.Errorf("index %d handed range [%d, %d]", i, t1, t2)
		}
		return rowCols{ts: []int64{t1}, vals: [][]int64{{t2}}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(ranges)) {
		t.Fatalf("fn ran %d times, want %d", got, len(ranges))
	}
	if len(rows.ts) != len(ranges) || len(rows.vals) != 1 || len(rows.vals[0]) != len(ranges) {
		t.Fatalf("got %d rows, %d columns", len(rows.ts), len(rows.vals))
	}
	for i, tt := range rows.ts {
		if tt != int64(i)*10 || rows.vals[0][i] != tt+9 {
			t.Fatalf("row %d out of order: %d %d", i, tt, rows.vals[0][i])
		}
	}
	boom := errors.New("boom")
	_, err = e.runRanged(ranges, nil, func(_ int, t1, t2 int64) (rowCols, error) {
		if t1 == 200 {
			return rowCols{}, fmt.Errorf("range %d: %w", t1, boom)
		}
		return rowCols{}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// keptRows is the row range aggSlice and the batch cursor keep for
// t1 <= T <= t2 within rows [lo, hi): [row(t1), row(t2+1)).
func keptRows(c rowClock, t1, t2 int64, lo, hi int) (int, int) {
	lo = c.row(t1, lo, hi)
	return lo, c.row(t2+1, lo, hi)
}

// scanKeep is keptRows' oracle: the first and one past the last row in
// [lo, hi) whose timestamp lies in [t1, t2], or [0, 0) when none does.
func scanKeep(c rowClock, t1, t2 int64, lo, hi int) (int, int) {
	wantLo, wantHi := 0, 0
	found := false
	for r := lo; r < hi; r++ {
		if ts := c.at(r); ts >= t1 && ts <= t2 {
			if !found {
				wantLo, found = r, true
			}
			wantHi = r + 1
		}
	}
	return wantLo, wantHi
}

// sameKeep compares a kept range with scanKeep's, all empty ranges equal.
func sameKeep(lo, hi, wantLo, wantHi int) bool {
	if lo >= hi || wantLo >= wantHi {
		return lo >= hi && wantLo >= wantHi
	}
	return lo == wantLo && hi == wantHi
}

// TestRowClockConstantIntervalCases: listed constant-interval clocks and
// time ranges, interval 0 and inverted ranges included, keep the rows
// named.
func TestRowClockConstantIntervalCases(t *testing.T) {
	cases := []struct {
		first, interval int64
		n               int
		t1, t2          int64
		lo, hi          int
	}{
		{0, 10, 100, 25, 55, 3, 6},   // 30,40,50
		{0, 10, 100, 0, 990, 0, 100}, // everything
		{0, 10, 100, -50, -1, 0, 0},  // before start
		{0, 10, 10, 95, 200, 0, 0},   // after end
		{0, 10, 100, 30, 30, 3, 4},   // exact hit
		{0, 10, 100, 31, 39, 0, 0},   // between points
		{100, 10, 5, 0, 1000, 0, 5},  // full range
		{100, 0, 5, 100, 100, 0, 5},  // interval 0, match
		{100, 0, 5, 0, 50, 0, 0},     // interval 0, no match
		{0, 10, 100, 55, 25, 0, 0},   // inverted range
	}
	for i, c := range cases {
		lo, hi := keptRows(rowClock{first: c.first, interval: c.interval}, c.t1, c.t2, 0, c.n)
		if !sameKeep(lo, hi, c.lo, c.hi) {
			t.Errorf("case %d: got [%d,%d) want [%d,%d)", i, lo, hi, c.lo, c.hi)
		}
	}
}

// TestRowClockConstantIntervalMatchesScan: on random constant-interval
// clocks, the kept rows are the ones a linear scan finds in [t1, t2].
func TestRowClockConstantIntervalMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		c := rowClock{first: rng.Int63n(1000), interval: rng.Int63n(50) + 1}
		n := rng.Intn(200) + 1
		t1 := rng.Int63n(c.first + c.interval*int64(n) + 100)
		t2 := t1 + rng.Int63n(c.interval*int64(n)+1)
		lo, hi := keptRows(c, t1, t2, 0, n)
		wantLo, wantHi := scanKeep(c, t1, t2, 0, n)
		if !sameKeep(lo, hi, wantLo, wantHi) {
			t.Fatalf("trial %d: got [%d,%d) want [%d,%d)", trial, lo, hi, wantLo, wantHi)
		}
	}
}

// TestRowClockDecodedMatchesScan: on random strictly increasing decoded
// timestamps, the kept rows are the ones a linear scan finds in [t1, t2].
func TestRowClockDecodedMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		ts := make([]int64, n)
		cur := int64(0)
		for i := range ts {
			cur += rng.Int63n(100) + 1
			ts[i] = cur
		}
		t1 := rng.Int63n(cur + 10)
		t2 := t1 + rng.Int63n(cur+1)
		c := rowClock{ts: ts}
		lo, hi := keptRows(c, t1, t2, 0, n)
		wantLo, wantHi := scanKeep(c, t1, t2, 0, n)
		return sameKeep(lo, hi, wantLo, wantHi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRowClockRowMatchesSearch: rowClock.row names the row a linear
// lower-bound scan over the same timestamps finds — on constant clocks,
// interval 0 included, and on decoded ones with repeated timestamps and a
// job that starts past row 0 — for times before, between, on and after
// the rows, near the int64 edges, and over empty row ranges; and
// [row(t1), row(t2+1)), the range aggSlice and the batch cursor keep, is
// exactly the rows with t1 <= T <= t2.
func TestRowClockRowMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(300)
		var c rowClock
		ts := make([]int64, n)
		switch trial % 3 {
		case 0, 1: // constant; every tenth near MinInt64, a few of interval 0
			c = rowClock{first: rng.Int63n(1<<40) - 1<<39, interval: 1 + rng.Int63n(5000)}
			if trial%10 == 0 {
				c.first = math.MinInt64/2 + rng.Int63n(1000)
			}
			if trial%7 == 0 {
				c.interval = 0
			}
			for i := range ts {
				ts[i] = c.at(i)
			}
		default: // decoded, with runs of equal timestamps, rows from start
			cur := rng.Int63n(1<<40) - 1<<39
			for i := range ts {
				ts[i] = cur
				if rng.Intn(3) != 0 {
					cur += rng.Int63n(100)
				}
			}
			c = rowClock{ts: ts, start: rng.Intn(50)}
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		if trial%11 == 0 {
			hi = lo // empty row range
		}
		lo, hi = lo+c.start, hi+c.start
		first, last := ts[0], ts[n-1]
		probes := []int64{math.MinInt64, math.MaxInt64, first - 1, first, last, last + 1}
		for k := 0; k < 20; k++ {
			probes = append(probes, first-50+rng.Int63n(last-first+101))
		}
		for _, tt := range probes {
			want := hi
			for r := lo; r < hi; r++ {
				if c.at(r) >= tt {
					want = r
					break
				}
			}
			if got := c.row(tt, lo, hi); got != want {
				t.Fatalf("clock %+v rows [%d, %d): row(%d) = %d, scan %d", c, lo, hi, tt, got, want)
			}
		}
		for k := 0; k < 10; k++ {
			t1 := probes[rng.Intn(len(probes))]
			t2 := min(probes[rng.Intn(len(probes))], math.MaxInt64-1)
			klo, khi := keptRows(c, t1, t2, lo, hi)
			for r := lo; r < hi; r++ {
				if in := r >= klo && r < khi; in != (c.at(r) >= t1 && c.at(r) <= t2) {
					t.Fatalf("clock %+v rows [%d, %d): [%d, %d] keeps [%d, %d), row %d at %d", c, lo, hi, t1, t2, klo, khi, r, c.at(r))
				}
			}
		}
	}
}

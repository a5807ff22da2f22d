package engine

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// seriesPages returns a snapshot of a stored series' page list.
func seriesPages(st *storage.Store, name string) []storage.PagePair {
	ser, _ := st.Series(name)
	return ser.PagesInRange(math.MinInt64, math.MaxInt64)
}

// TestRowPlansReadTheirSnapshot: a row plan streams the pages it was
// planned over, as an aggregate plan runs its jobs. Rows appended to the
// series between planning and running are not part of the answer, in
// every mode, for the scan, the UNION and the join alike.
func TestRowPlansReadTheirSnapshot(t *testing.T) {
	sqls := []string{
		"SELECT * FROM ts1",
		"SELECT * FROM ts1 UNION ts2 ORDER BY TIME",
		"SELECT * FROM ts1, ts2",
	}
	for _, mode := range allModes {
		st := twoSeriesStore(t)
		e := New(st, mode)
		e.Workers = 2
		plans := make([]*plan, len(sqls))
		wants := make([]*Result, len(sqls))
		for i, sql := range sqls {
			q, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			if plans[i], err = e.newPlan(q); err != nil {
				t.Fatal(err)
			}
			if wants[i], err = e.ExecuteSQL(sql); err != nil {
				t.Fatal(err)
			}
		}
		end := seriesPages(st, "ts1")[1].EndTime()
		for _, name := range []string{"ts1", "ts2"} {
			if err := st.Append(name, []int64{end + 1, end + 2}, []int64{1, 2}, storage.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range plans {
			got, err := e.run(p, nil, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Time, wants[i].Time) || !slices.EqualFunc(got.Values, wants[i].Values, slices.Equal) {
				t.Errorf("%v %q planned before the append: %d rows, want the plan-time %d",
					mode, sqls[i], len(got.Time), len(wants[i].Time))
			}
			if got.Stats.PagesTotal != int64(p.pagesTotal) {
				t.Errorf("%v %q: ran over %d pages, planned %d", mode, sqls[i], got.Stats.PagesTotal, p.pagesTotal)
			}
			after, err := e.ExecuteSQL(sqls[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(after.Time) != len(wants[i].Time)+2 {
				t.Errorf("%v %q planned after the append: %d rows, want %d",
					mode, sqls[i], len(after.Time), len(wants[i].Time)+2)
			}
		}
	}
}

// TestUnionRejectsValuePredicates: the UNION merge applies no value
// predicate, so a plan with one is an error rather than a result that
// ignores it. TIME bounds stay allowed.
func TestUnionRejectsValuePredicates(t *testing.T) {
	e := New(twoSeriesStore(t), ModeETSQP)
	if _, err := e.ExecuteSQL("SELECT * FROM ts1 WHERE A > 99999999 UNION ts2"); err == nil ||
		!strings.Contains(err.Error(), "UNION takes TIME predicates only") {
		t.Errorf("UNION with a value predicate: error %v", err)
	}
	res, err := e.ExecuteSQL("SELECT * FROM ts1 WHERE TIME >= 1000 AND TIME < 1010 UNION ts2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Time) != 10 {
		t.Errorf("UNION under TIME bounds: %d rows, want 10", len(res.Time))
	}
}

// TestRowScanPrunes: under the prune strategy a value-filtered scan
// skips the pages whose statistics exclude the filter, as an aggregate
// does, and charges the plan's page selection to the prune stage: the
// trace's prune span is the run's PruneNanos is the plan's pruneNs.
func TestRowScanPrunes(t *testing.T) {
	st := planStore(t) // pages of zeros, fives and 0..10
	for _, c := range []struct {
		mode            Mode
		sql             string
		pruned, decoded int64
		rows            int
	}{
		{ModeETSQPPrune, "SELECT * FROM ts WHERE A > 10", 3, 0, 0},
		{ModeETSQPPrune, "SELECT * FROM ts WHERE A >= 3 AND A <= 7", 1, 2048, 1489},
		{ModeETSQP, "SELECT * FROM ts WHERE A > 10", 0, 3072, 0},
	} {
		e := New(st, c.mode)
		e.Workers = 2
		p, res, tr, err := e.traceSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.PagesTotal != 3 || s.PagesPruned != c.pruned || s.ValuesDecoded != c.decoded || len(res.Time) != c.rows {
			t.Errorf("%v %q: pages %d pruned %d decoded %d rows %d, want 3 %d %d %d",
				c.mode, c.sql, s.PagesTotal, s.PagesPruned, s.ValuesDecoded, len(res.Time), c.pruned, c.decoded, c.rows)
		}
		if c.pruned == 3 && s.PagesRead != 0 {
			t.Errorf("%v %q: read %d pages, all were pruned", c.mode, c.sql, s.PagesRead)
		}
		span := tr.Root.Children[2]
		if span.Name != "prune" || span.DurNs != s.PruneNanos || s.PruneNanos != p.pruneNs {
			t.Errorf("%v %q: %s span %d, PruneNanos %d, plan pruneNs %d",
				c.mode, c.sql, span.Name, span.DurNs, s.PruneNanos, p.pruneNs)
		}
	}
}

// TestFilteredScanBytes: a value-filtered scan reserves no column for
// rows it may never yield. Over 200 000 rows, a scan whose filter is
// above every value allocates what decoding its pages takes (16 B per
// row), not a second 16 B per row of empty columns; under the prune
// strategy every page is pruned and it allocates almost nothing. The
// unfiltered scan keeps its exact reservation: it decodes, fills its
// range's columns and concatenates the ranges, 3 × 16 B per row and a
// constant per query.
func TestFilteredScanBytes(t *testing.T) {
	ts, vals := testData(200_000, 7, true)
	st := storeFor(t, ModeETSQP, ts, vals, 0)
	above := "SELECT * FROM ts WHERE A > " + strconv.FormatInt(slices.Max(vals), 10)
	for _, c := range []struct {
		mode   Mode
		sql    string
		rows   int
		budget float64 // bytes per stored row
	}{
		{ModeETSQP, above, 0, 20},
		{ModeETSQPPrune, above, 0, 1},
		{ModeETSQP, "SELECT * FROM ts", len(ts), 48.2},
	} {
		e := New(st, c.mode)
		e.Workers = 2
		run := func() {
			res, err := e.ExecuteSQL(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Time) != c.rows {
				t.Fatalf("%v %q: %d rows, want %d", c.mode, c.sql, len(res.Time), c.rows)
			}
		}
		run()
		const reps = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			run()
		}
		runtime.ReadMemStats(&after)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / reps / float64(len(ts))
		if perRow > c.budget {
			t.Errorf("%v %q: %.2f B per stored row, budget %.1f", c.mode, c.sql, perRow, c.budget)
		}
		t.Logf("%v %q: %.2f B per stored row", c.mode, c.sql, perRow)
	}
}

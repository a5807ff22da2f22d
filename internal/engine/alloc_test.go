package engine

import (
	"testing"

	"etsqp/internal/storage"
)

// TestParallelExecutorAllocs is the runtime cross-check of the
// sharedwrite refactors: row queries on the range executor and the
// executor itself must hold a steady per-call allocation count once
// caches are warm. The fan-outs inherently allocate — decoded page
// columns, cursors, goroutines, the result slots — but the count is a
// function of page/range count only, never of call repetition or row
// volume, so a fixed budget catches any per-row allocation that sneaks
// into a worker body.
func TestParallelExecutorAllocs(t *testing.T) {
	ts, vals := testData(8192, 7, true)
	st := storeFor(t, ModeETSQP, ts, vals, 512)
	if err := st.Append("ts2", ts, vals, storage.Options{PageSize: 512}); err != nil {
		t.Fatal(err)
	}
	e := New(st, ModeETSQP)
	e.Workers = 4

	// Both queries stream every page of their series through cursors and
	// return no row: the filter passes nothing, CORR folds pairs in place.
	for _, sql := range []string{
		"SELECT * FROM ts WHERE A > 1000000000",
		"SELECT CORR(ts.A, ts2.A) FROM ts, ts2",
	} {
		warm, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		pages := int(warm.Stats.PagesTotal)
		if pages == 0 || warm.Stats.CursorBatches != int64(pages) {
			t.Fatalf("%q: %d pages, %d cursor batches", sql, pages, warm.Stats.CursorBatches)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := e.ExecuteSQL(sql); err != nil {
				t.Fatal(err)
			}
		})
		// Budget: a small constant per decoded page (its two columns and
		// their load buffers) plus fixed parse, plan and fan-out overhead
		// (cursors, closures, result slots, one goroutine per worker).
		if budget := float64(pages*6 + 48); n > budget {
			t.Errorf("%q: %.1f allocs/op over %d pages, budget %.0f", sql, n, pages, budget)
		}
		t.Logf("%q: %.1f allocs/op over %d pages", sql, n, pages)
	}

	ser, ok := st.Series("ts")
	if !ok {
		t.Fatal("unknown series")
	}
	ranges := cutPages(ser.PagesInRange(ts[0], ts[len(ts)-1]), ts[0], ts[len(ts)-1], 8)
	static := rowCols{ts: []int64{1}, vals: [][]int64{{1}}}
	fn := func(_ int, a, b int64) (rowCols, error) { return static, nil }
	if _, err := e.runRanged(ranges, nil, fn); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := e.runRanged(ranges, nil, fn); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: result slots + semaphore + one goroutine and closure per
	// range + the concatenated output. fn itself allocates nothing, so
	// this isolates the executor's own overhead.
	if budget := float64(len(ranges)*6 + 16); n > budget {
		t.Errorf("runRanged: %.1f allocs/op over %d ranges, budget %.0f", n, len(ranges), budget)
	}
	t.Logf("runRanged: %.1f allocs/op over %d ranges", n, len(ranges))
}

package engine

import (
	"testing"

	"etsqp/internal/exec"
)

// TestBatchCursorSteadyStateAllocs is the runtime cross-check of the
// //etsqp:hotpath annotations on the batch-cursor path (Next, fill,
// ts, val, Len): once the decoded-page cache is warm, draining a
// cursor costs a small fixed number of allocations — cursor and head
// construction plus the sort.Search closures in PagesInRange — and
// never a function of page or row count. A per-batch or per-row
// allocation regression breaks the budget immediately, the same way
// the hotpathalloc analyzer catches one statically.
func TestBatchCursorSteadyStateAllocs(t *testing.T) {
	ts, vals := testData(8192, 7, true)
	st := storeFor(t, ModeETSQP, ts, vals, 512)
	e := New(st, ModeETSQP)
	// engine.New leaves Cache nil; the steady state under test is the
	// cache-hit path, so wire a cache big enough to hold every page.
	e.Cache = exec.NewPageCache(64 << 20)

	t1, t2 := ts[100], ts[len(ts)-100]
	col := &statsCollector{}

	drain := func() int {
		cur := e.newBatchCursor("ts", seriesPages(st, "ts"), t1, t2, col)
		rows := 0
		for {
			b, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				return rows
			}
			rows += b.Len()
		}
	}
	want := drain() // warms the cache
	if want != len(ts)-199 {
		t.Fatalf("cursor drained %d rows, want %d", want, len(ts)-199)
	}
	if e.Cache.Len() == 0 {
		t.Fatal("warm-up did not populate the decoded-page cache")
	}

	n := testing.AllocsPerRun(50, func() {
		if got := drain(); got != want {
			t.Fatalf("cursor drained %d rows, want %d", got, want)
		}
	})
	// Budget: the batchCursor itself, PagesInRange's two search
	// closures, and slack for the testing harness — nothing that scales
	// with the 16 pages or 8k rows drained.
	if n > 8 {
		t.Errorf("warm cursor drain: %.1f allocs/op, budget 8", n)
	}
	t.Logf("warm cursor drain: %.1f allocs/op over %d rows", n, want)

	advance := func() int {
		cur := e.newBatchCursor("ts", seriesPages(st, "ts"), t1, t2, col)
		h := &cursorHead{c: cur}
		var sum int64
		rows := 0
		for {
			if err := h.fill(); err != nil {
				t.Fatal(err)
			}
			if h.eof {
				break
			}
			sum += h.ts() + h.val()
			h.i++
			rows++
		}
		if sum == 0 {
			t.Fatal("implausible zero checksum")
		}
		return rows
	}
	if got := advance(); got != want {
		t.Fatalf("head advanced %d rows, want %d", got, want)
	}
	n = testing.AllocsPerRun(50, func() {
		if got := advance(); got != want {
			t.Fatalf("head advanced %d rows, want %d", got, want)
		}
	})
	// One more alloc than the drain budget: the cursorHead.
	if n > 9 {
		t.Errorf("warm head advance: %.1f allocs/op, budget 9", n)
	}
	t.Logf("warm head advance: %.1f allocs/op over %d rows", n, want)
}

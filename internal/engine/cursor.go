package engine

import (
	"math"
	"time"

	"etsqp/internal/expr"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// Int64Batch is one typed columnar batch yielded by a batch cursor:
// parallel timestamp/value columns for a run of rows in time order.
type Int64Batch struct {
	Ts   []int64
	Vals []int64
}

// Len returns the number of rows in the batch.
//
//etsqp:hotpath
func (b Int64Batch) Len() int { return len(b.Ts) }

// batchCursor streams a series' rows within [t1, t2] as typed columnar
// batches, one storage page per Next call (the array_cursor idiom):
// operators compose over batches while pages decode lazily, so a LIMIT
// or a drained join side stops before later pages are ever touched, and
// merge/join nodes never materialize a whole series.
type batchCursor struct {
	e      *Engine
	name   string
	t1, t2 int64
	pairs  []storage.PagePair
	rows   int // rows on pairs: at least as many as the cursor yields
	idx    int
	col    *statsCollector
}

// newBatchCursor opens a cursor over the [t1, t2] rows of a plan's pages.
func (e *Engine) newBatchCursor(name string, pages []storage.PagePair, t1, t2 int64, col *statsCollector) *batchCursor {
	c := &batchCursor{e: e, name: name, t1: t1, t2: t2, pairs: storage.PagesIn(pages, t1, t2), col: col}
	for _, pp := range c.pairs {
		c.rows += pp.Count()
	}
	return c
}

// Next returns the next non-empty batch, or a zero batch at exhaustion.
// The returned columns are read-only views (decode-cache or freshly
// decoded backing) that remain valid until the cursor advances. A
// cache-hit advance is allocation-free (see TestBatchCursorSteadyStateAllocs);
// the decode miss underneath is //etsqp:coldpath.
//
//etsqp:hotpath
func (c *batchCursor) Next() (Int64Batch, error) {
	for c.idx < len(c.pairs) {
		pp := c.pairs[c.idx]
		c.idx++
		c.col.tuplesLoaded.Add(int64(pp.Count()))
		var batchStart time.Time
		if c.col.trace != nil {
			batchStart = time.Now()
		}
		var tr, vr pageRead
		ts, err := c.e.decodeColumnRange(c.name, pp.Time, &tr, 0, pp.Count(), math.MaxInt64, nil, c.col)
		if err != nil {
			return Int64Batch{}, err
		}
		vals, err := c.e.decodeColumnRange(c.name, pp.Value, &vr, 0, pp.Count(), math.MaxInt64, nil, c.col)
		if err != nil {
			return Int64Batch{}, err
		}
		c.col.valuesDecoded.Add(int64(len(vals)))
		// Clip to the requested time range (page granularity loads extra);
		// a range's t2 is at most the plan's, MaxInt64-1, so t2+1 cannot wrap.
		clock := rowClock{ts: ts}
		lo := clock.row(c.t1, 0, len(ts))
		hi := clock.row(c.t2+1, lo, len(ts))
		if c.col.trace != nil {
			c.col.trace.addSlice(SliceEvent{
				StartRow: lo, EndRow: hi, Rows: hi - lo,
				DurNs: int64(time.Since(batchStart)),
			})
		}
		if lo >= hi {
			continue
		}
		c.col.cursorBatches.Add(1)
		return Int64Batch{Ts: ts[lo:hi], Vals: vals[lo:hi]}, nil
	}
	return Int64Batch{}, nil
}

// cursorHead is the merge-side view of a cursor: the current batch and a
// position in it, refilled on demand. fillNs accumulates time spent
// inside Next so merge nodes can charge pure merge time to the merge
// stage without double counting the io/decode work Next performs.
type cursorHead struct {
	c      *batchCursor
	b      Int64Batch
	i      int
	eof    bool
	fillNs int64
}

// fill ensures the head points at a valid row (or sets eof).
//
//etsqp:hotpath
func (h *cursorHead) fill() error {
	for !h.eof && h.i >= h.b.Len() {
		start := time.Now()
		b, err := h.c.Next()
		h.fillNs += int64(time.Since(start))
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			h.eof = true
			return nil
		}
		h.b, h.i = b, 0
	}
	return nil
}

//etsqp:hotpath
func (h *cursorHead) ts() int64 { return h.b.Ts[h.i] }

//etsqp:hotpath
func (h *cursorHead) val() int64 { return h.b.Vals[h.i] }

// filterCursor streams the rows of one cursor whose values satisfy the
// predicate conjunction. emit returns false to stop early (LIMIT), before
// another page is decoded. Pure filter time (batch refills excluded) is
// charged to the filter stage.
func filterCursor(c *batchCursor, vp []sqlparse.Pred, col *statsCollector, emit func(t, v int64) bool) error {
	for {
		b, err := c.Next()
		if err != nil || b.Len() == 0 {
			return err
		}
		start := time.Now()
		stop := false
		for i, v := range b.Vals {
			if predsMatch(vp, v) && !emit(b.Ts[i], v) {
				stop = true
				break
			}
		}
		col.filterNanos.Add(int64(time.Since(start)))
		if stop {
			return nil
		}
	}
}

// mergeCursors streams the time-ordered concatenation e1 ∘ e2 of two
// cursors (the batch form of expr.MergeByTime): equal timestamps merge
// into one row with both values, a missing side yields expr.NullValue.
// emit returns false to stop early (LIMIT). Pure merge time (batch
// refills excluded) is charged to the merge stage.
func mergeCursors(l, r *batchCursor, col *statsCollector, emit func(t, lv, rv int64) bool) error {
	lh, rh := &cursorHead{c: l}, &cursorHead{c: r}
	start := time.Now()
	defer func() {
		col.mergeNanos.Add(int64(time.Since(start)) - lh.fillNs - rh.fillNs)
	}()
	for {
		if err := lh.fill(); err != nil {
			return err
		}
		if err := rh.fill(); err != nil {
			return err
		}
		switch {
		case lh.eof && rh.eof:
			return nil
		case rh.eof || (!lh.eof && lh.ts() < rh.ts()):
			if !emit(lh.ts(), lh.val(), expr.NullValue) {
				return nil
			}
			lh.i++
		case lh.eof || rh.ts() < lh.ts():
			if !emit(rh.ts(), expr.NullValue, rh.val()) {
				return nil
			}
			rh.i++
		default:
			if !emit(lh.ts(), lh.val(), rh.val()) {
				return nil
			}
			lh.i++
			rh.i++
		}
	}
}

// joinCursors streams the natural (time-aligned) join of two cursors
// with the two-pointer merge of expr.NaturalJoin, batch-refilled on
// either side as it drains; when one side is exhausted the other side's
// remaining pages are never decoded. emit returns false to stop early.
func joinCursors(l, r *batchCursor, col *statsCollector, emit func(t, lv, rv int64) bool) error {
	lh, rh := &cursorHead{c: l}, &cursorHead{c: r}
	start := time.Now()
	defer func() {
		col.mergeNanos.Add(int64(time.Since(start)) - lh.fillNs - rh.fillNs)
	}()
	for {
		if err := lh.fill(); err != nil {
			return err
		}
		if err := rh.fill(); err != nil {
			return err
		}
		if lh.eof || rh.eof {
			return nil
		}
		switch {
		case lh.ts() < rh.ts():
			lh.i++
		case rh.ts() < lh.ts():
			rh.i++
		default:
			if !emit(lh.ts(), lh.val(), rh.val()) {
				return nil
			}
			lh.i++
			rh.i++
		}
	}
}

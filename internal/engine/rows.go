package engine

import (
	"fmt"
	"math"
	"time"

	"etsqp/internal/exec"
	"etsqp/internal/expr"
	"etsqp/internal/obs"
	"etsqp/internal/pipeline"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// sliceJob pairs a pipeline slice with the pre-carved destination
// windows of the shared output columns, so each worker goroutine owns
// exactly the rows it decodes.
type sliceJob struct {
	sl         pipeline.Slice
	tdst, vdst []int64
}

// readSeriesColumns decodes the [t1, t2] portion of a series into flat
// columns: it selects the pages and their jobs, readPages does the rest.
func (e *Engine) readSeriesColumns(name string, t1, t2 int64, col *statsCollector) ([]int64, []int64, error) {
	ser, ok := e.Store.Series(name)
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown series %q", name)
	}
	pages := ser.PagesInRange(t1, t2)
	return e.readPages(name, pages, e.jobsFor(pages), t1, t2, col)
}

// readPages decodes pages (in time order) into flat columns clipped to
// [t1, t2], running their slice jobs as one morsel batch on the shared
// pool and writing each slice's rows into its disjoint output range (no
// merge copying).
func (e *Engine) readPages(name string, pages []storage.PagePair, slices []pipeline.Slice,
	t1, t2 int64, col *statsCollector) ([]int64, []int64, error) {
	col.pagesTotal.Add(int64(len(pages)))
	total := 0
	offsets := make(map[*storage.Page]int, len(pages))
	for _, pp := range pages {
		offsets[pp.Time] = total
		total += pp.Count()
	}
	ts := make([]int64, total)
	vals := make([]int64, total)
	// Carve each slice's disjoint output window up front: a morsel then
	// writes only through its own sliceJob destinations, never through
	// the shared columns, so participants are write-disjoint regardless
	// of which worker steals which morsel.
	morsels := make([]sliceJob, len(slices))
	for i, sl := range slices {
		base := offsets[sl.Pair.Time]
		morsels[i] = sliceJob{
			sl:   sl,
			tdst: ts[base+sl.StartRow : base+sl.EndRow],
			vdst: vals[base+sl.StartRow : base+sl.EndRow],
		}
	}
	err := e.pool().RunWith(&col.execStats, len(morsels), e.workers(), func(w *exec.Worker, i int) error {
		j := morsels[i]
		col.slicesRun.Add(1)
		col.tuplesLoaded.Add(int64(j.sl.Rows()))
		obs.EngineHistSliceRows.Observe(int64(j.sl.Rows()))
		var sliceStart time.Time
		if col.trace != nil {
			sliceStart = time.Now()
		}
		tcol, err := e.decodeColumnRange(name, j.sl.Pair.Time, j.sl.StartRow, j.sl.EndRow, col)
		if err != nil {
			return err
		}
		vcol, err := e.decodeColumnRange(name, j.sl.Pair.Value, j.sl.StartRow, j.sl.EndRow, col)
		if err != nil {
			return err
		}
		col.valuesDecoded.Add(int64(len(vcol)))
		copy(j.tdst, tcol)
		copy(j.vdst, vcol)
		if col.trace != nil {
			col.trace.addSlice(SliceEvent{
				StartRow: j.sl.StartRow, EndRow: j.sl.EndRow, Rows: j.sl.Rows(),
				DurNs: int64(time.Since(sliceStart)),
			})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Trim to the requested time range (page granularity loaded extra).
	lo, hi := expr.TimeRangeBounds(ts, t1, t2)
	return ts[lo:hi], vals[lo:hi], nil
}

// executeScan handles SELECT * FROM series [WHERE ...]: decoded rows with
// predicates applied. A LIMIT scan streams through a batch cursor so the
// scan stops decoding pages once the limit is satisfied; an unbounded
// scan materializes all pages in parallel on the shared pool.
func (e *Engine) executeScan(p *plan, tr *Trace) (*Result, error) {
	q, vp := p.q, p.vp
	col := newCollector(tr)
	res := &Result{}
	if q.Limit > 0 {
		cur, err := e.newBatchCursor(p.series[0], p.t1, p.t2, col)
		if err != nil {
			return nil, err
		}
		for len(res.Rows) < q.Limit {
			b, err := cur.Next()
			if err != nil {
				return nil, err
			}
			if b.Len() == 0 {
				break
			}
			timed(&col.filterNanos, func() error {
				for i := range b.Ts {
					if predsMatch(vp, b.Vals[i]) {
						res.Rows = append(res.Rows, Row{Time: b.Ts[i], Values: []int64{b.Vals[i]}})
						if len(res.Rows) >= q.Limit {
							break
						}
					}
				}
				return nil
			})
		}
		res.Stats = col.finish()
		return res, nil
	}
	ts, vals, err := e.readPages(p.series[0], p.pages, p.slices, p.t1, p.t2, col)
	if err != nil {
		return nil, err
	}
	err = timed(&col.filterNanos, func() error {
		for i := range ts {
			if predsMatch(vp, vals[i]) {
				res.Rows = append(res.Rows, Row{Time: ts[i], Values: []int64{vals[i]}})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = col.finish()
	return res, nil
}

// executeRanged runs the merge and join shapes over the plan's
// time-range merge nodes (Figure 9): the covered interval was cut at page
// boundaries, each range streams both series through batch cursors on an
// independent worker, and the per-range rows concatenate in time order.
// Merge is Q5, SELECT * FROM ts1 UNION ts2 ORDER BY TIME (Figure 9(a)).
// Join is Q4 (projection over join) and Q6 (natural join): join masks
// are produced within each shared time range (Figure 9(b)) and the merge
// node concatenates them (Equation 6).
func (e *Engine) executeRanged(p *plan, tr *Trace) (*Result, error) {
	limit, item := p.q.Limit, p.q.Items[0]
	col := newCollector(tr)
	col.mergeRanges.Add(int64(len(p.cuts)))
	rows, err := e.runRanged(p.cuts, col, func(a, b int64) ([]Row, error) {
		lc, err := e.newBatchCursor(p.series[0], a, b, col)
		if err != nil {
			return nil, err
		}
		rc, err := e.newBatchCursor(p.series[1], a, b, col)
		if err != nil {
			return nil, err
		}
		var out []Row
		// Rows past the limit can never survive the final trim, so each
		// range stops decoding once it alone could satisfy it.
		more := func() bool { return limit <= 0 || len(out) < limit }
		if p.shape == shapeMerge {
			err = mergeCursors(lc, rc, col, func(r Row) bool {
				out = append(out, r)
				return more()
			})
			return out, err
		}
		err = joinCursors(lc, rc, col, func(t, lv, rv int64) bool {
			if !joinPredsMatch(p.vp, p.series, lv, rv) {
				return true
			}
			if item.Star {
				out = append(out, Row{Time: t, Values: []int64{lv, rv}})
			} else {
				out = append(out, Row{Time: t, Values: []int64{lv + rv}})
			}
			return more()
		})
		return out, err
	})
	if err != nil {
		return nil, err
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return &Result{Rows: rows, Stats: col.finish()}, nil
}

// joinPredsMatch applies qualified value predicates to a joined row.
func joinPredsMatch(vp []sqlparse.Pred, series []string, lv, rv int64) bool {
	for _, p := range vp {
		v := lv
		if p.Col.Series != "" && len(series) == 2 && p.Col.Series == series[1] {
			v = rv
		}
		if !p.Op.Eval(v, p.Value) {
			return false
		}
	}
	return true
}

// executeJoinCorr handles SELECT CORR(ts1.A, ts2.A) FROM ts1, ts2: the
// Σ aᵢ·bᵢ application of Section IV. Both series decode and join on
// timestamps; the Pearson correlation is computed from the fused sums
// (Σa, Σb, Σa², Σb², Σab) of the joined rows.
func (e *Engine) executeJoinCorr(p *plan, tr *Trace) (*Result, error) {
	col := newCollector(tr)
	lts, lvs, err := e.readPages(p.series[0], p.pages, p.slices, p.t1, p.t2, col)
	if err != nil {
		return nil, err
	}
	rts, rvs, err := e.readSeriesColumns(p.series[1], p.t1, p.t2, col)
	if err != nil {
		return nil, err
	}
	var sa, sb, sab float64
	var saa, sbb float64
	var n float64
	err = timed(&col.aggNanos, func() error {
		left, right := expr.NaturalJoin(lts, rts)
		for k := range left {
			a := float64(lvs[left[k]])
			b := float64(rvs[right[k]])
			sa += a
			sb += b
			saa += a * a
			sbb += b * b
			sab += a * b
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("engine: CORR over empty join")
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	if va <= 0 || vb <= 0 {
		return nil, fmt.Errorf("engine: CORR undefined for zero variance")
	}
	r := cov / math.Sqrt(va*vb)
	return &Result{
		Aggregates: map[string]float64{"CORR(A,B)": r},
		Stats:      col.finish(),
	}, nil
}

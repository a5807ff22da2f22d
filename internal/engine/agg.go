package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/exec"
	"etsqp/internal/expr"
	"etsqp/internal/fusion"
	"etsqp/internal/obs"
	"etsqp/internal/pipeline"
	"etsqp/internal/prune"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// pruneChunk is the number of rows decoded between Proposition 5 stop
// checks on value-filtered scans.
const pruneChunk = 1024

// ErrOverflow is the Section VI-C aggregate-overflow sentinel. It is the
// fusion package's sentinel re-exported, so a single errors.Is covers
// both detection sites: the fused closed forms (which return it
// directly) and the scalar accumulators (whose sticky flag final()
// wraps around it). Serving layers use it to map overflow to a
// structured client error instead of a generic failure.
var ErrOverflow = fusion.ErrOverflow

// partialAgg is one worker's accumulation state, merged at the merge node.
type partialAgg struct {
	sum      int64
	sumSq    float64
	count    int64
	min      int64
	max      int64
	seen     bool
	overflow bool // Section VI-C: detected, surfaced as an error at final

	// FIRST/LAST tracking: value at the earliest/latest timestamp seen.
	firstT, firstV int64
	lastT, lastV   int64
	hasFL          bool
}

// addCheck adds two int64 detecting overflow — the scalar Section VI-C
// primitive the accumulators below fold through (fusion.addChecked is
// the same shape on the fused side).
//
//etsqp:checked add
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:inline
func addCheck(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return s, false
	}
	return s, true
}

// addBoundary folds a slice's boundary rows into the FIRST/LAST state.
//
//etsqp:hotpath
//etsqp:rangecheck
func (p *partialAgg) addBoundary(firstT, firstV, lastT, lastV int64) {
	if !p.hasFL || firstT < p.firstT {
		p.firstT, p.firstV = firstT, firstV
	}
	if !p.hasFL || lastT > p.lastT {
		p.lastT, p.lastV = lastT, lastV
	}
	p.hasFL = true
}

// addValue folds one decoded value into the running aggregate state —
// the per-row accumulator of every non-fused scan.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:rangecheck
func (p *partialAgg) addValue(v int64) {
	s, ok := addCheck(p.sum, v)
	if !ok {
		p.overflow = true
	}
	p.sum = s
	p.sumSq += float64(v) * float64(v)
	var okC bool
	p.count, okC = addCheck(p.count, 1)
	if !okC {
		p.overflow = true
	}
	if !p.seen || v < p.min {
		p.min = v
	}
	if !p.seen || v > p.max {
		p.max = v
	}
	p.seen = true
}

// foldRange folds every value of vals inside [c1, c2] into the running
// state, leaving it exactly as addValue per selected value would — the
// filter and the fold of every non-fused scan, a chunk at a time: a
// branch-free pass computes the chunk's (count, sum, min, max), mergeChunk
// folds them in when a magnitude bound proves the per-value sums could
// not have overflowed, and only otherwise is the chunk redone value by
// value through addValue, which sets the sticky overflow flag where the
// running sum leaves int64. sumSq is a float accumulation, so it is added
// in row order, and only when sq says the plan has a VAR to answer.
//
//etsqp:hotpath
//etsqp:noescape
func (p *partialAgg) foldRange(vals []int64, c1, c2 int64, sq bool) {
	if c1 > c2 {
		return
	}
	span := uint64(c2) - uint64(c1)
	for len(vals) > 0 {
		chunk := vals[:min(len(vals), pruneChunk)]
		vals = vals[len(chunk):]
		count, sum, lo, hi := rangeFold(chunk, c1, span)
		if count == 0 {
			continue
		}
		if !p.mergeChunk(count, sum, lo, hi) {
			for _, v := range chunk {
				if inSpan(v, c1, span) {
					p.addValue(v)
				}
			}
			continue
		}
		if sq {
			for _, v := range chunk {
				if inSpan(v, c1, span) {
					p.sumSq += float64(v) * float64(v)
				}
			}
		}
	}
}

// inSpan reports c1 <= v <= c1+span: as unsigned differences, v-c1 is at
// most span exactly inside the range.
//
//etsqp:hotpath
//etsqp:inline
func inSpan(v, c1 int64, span uint64) bool { return uint64(v)-uint64(c1) <= span }

// rangeFold is the chunk kernel of foldRange: count, wrapping sum,
// minimum and maximum of the values v with d = v-c1 <= span (unsigned),
// with no per-value control flow. The borrow of span-d is 1 outside the
// range; negated it is a mask that drops the value from the sum and the
// maximum. The minimum needs no mask: d maps the range onto [0, span] in
// order and everything outside it above span, so the smallest d of the
// chunk is the smallest selected one whenever anything is selected. With
// count == 0 the bounds are meaningless. The sum wraps by design (like
// the decoders, it is exact mod 2^64); mergeChunk decides whether it is
// also exact in int64.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
func rangeFold(vals []int64, c1 int64, span uint64) (count, sum, lo, hi int64) {
	dmin, dmax := ^uint64(0), uint64(0)
	var outside, total uint64
	for _, v := range vals {
		d := uint64(v) - uint64(c1)
		_, out := bits.Sub64(span, d, 0)
		drop := -out // all ones outside the range
		outside += out
		total += uint64(v) &^ drop
		dmin = min(dmin, d)
		dmax = max(dmax, d&^drop)
	}
	return int64(len(vals)) - int64(outside), int64(total), c1 + int64(dmin), c1 + int64(dmax)
}

// mergeChunk folds a chunk's (count > 0, sum, min, max) into the running
// state if no per-value fold of the chunk could have overflowed: every
// prefix of the running sum stays within |p.sum| + count*max(|lo|, |hi|),
// so when that bound fits int64 the chunk sum is exact and addValue would
// never have flagged. It reports false, touching nothing, when the bound
// or the count does not fit; the caller then redoes the chunk through
// addValue.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:rangecheck
func (p *partialAgg) mergeChunk(count, sum, lo, hi int64) bool {
	mag := max(magnitude(lo), magnitude(hi))
	over, bound := bits.Mul64(uint64(count), mag)
	bound, carry := bits.Add64(bound, magnitude(p.sum), 0)
	if over != 0 || carry != 0 || bound > math.MaxInt64 {
		return false
	}
	s, okS := addCheck(p.sum, sum)
	c, okC := addCheck(p.count, count)
	if !okS || !okC {
		return false
	}
	p.sum, p.count = s, c
	if !p.seen || lo < p.min {
		p.min = lo
	}
	if !p.seen || hi > p.max {
		p.max = hi
	}
	p.seen = true
	return true
}

// magnitude returns |v| as a uint64; |MinInt64| = 2^63 fits.
//
//etsqp:hotpath
//etsqp:inline
func magnitude(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// addSum folds a fused per-block (sum, count) pair.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:rangecheck
func (p *partialAgg) addSum(sum int64, count int64) {
	s, ok := addCheck(p.sum, sum)
	if !ok {
		p.overflow = true
	}
	p.sum = s
	var okC bool
	p.count, okC = addCheck(p.count, count)
	if !okC {
		p.overflow = true
	}
	p.seen = p.seen || count > 0
}

// merge combines a worker's partial into the receiver.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:rangecheck
func (p *partialAgg) merge(o *partialAgg) {
	p.overflow = p.overflow || o.overflow
	s, ok := addCheck(p.sum, o.sum)
	if !ok {
		p.overflow = true
	}
	p.sum = s
	p.sumSq += o.sumSq
	var okC bool
	p.count, okC = addCheck(p.count, o.count)
	if !okC {
		p.overflow = true
	}
	if o.hasFL {
		p.addBoundary(o.firstT, o.firstV, o.lastT, o.lastV)
	}
	if !o.seen {
		return
	}
	if !p.seen {
		p.min, p.max = o.min, o.max
	} else {
		if o.min < p.min {
			p.min = o.min
		}
		if o.max > p.max {
			p.max = o.max
		}
	}
	p.seen = true
}

// final evaluates the aggregate function from the accumulated sums.
func (p *partialAgg) final(agg sqlparse.AggFunc) (float64, error) {
	if p.overflow {
		switch agg {
		case sqlparse.AggSum, sqlparse.AggAvg, sqlparse.AggVar:
			return 0, fmt.Errorf("engine: %s overflow (Section VI-C check): %w", agg, ErrOverflow)
		}
	}
	switch agg {
	case sqlparse.AggCount:
		return float64(p.count), nil
	case sqlparse.AggSum:
		return float64(p.sum), nil
	case sqlparse.AggAvg:
		if p.count == 0 {
			return 0, nil
		}
		return float64(p.sum) / float64(p.count), nil
	case sqlparse.AggMin:
		if !p.seen {
			return 0, fmt.Errorf("engine: MIN over empty input")
		}
		return float64(p.min), nil
	case sqlparse.AggMax:
		if !p.seen {
			return 0, fmt.Errorf("engine: MAX over empty input")
		}
		return float64(p.max), nil
	case sqlparse.AggVar:
		if p.count == 0 {
			return 0, nil
		}
		mean := float64(p.sum) / float64(p.count)
		return p.sumSq/float64(p.count) - mean*mean, nil
	case sqlparse.AggFirst:
		if !p.hasFL {
			return 0, fmt.Errorf("engine: FIRST over empty input")
		}
		return float64(p.firstV), nil
	case sqlparse.AggLast:
		if !p.hasFL {
			return 0, fmt.Errorf("engine: LAST over empty input")
		}
		return float64(p.lastV), nil
	default:
		return 0, fmt.Errorf("engine: unsupported aggregate %q", agg)
	}
}

// needsValues reports whether the aggregate set requires materialized
// values (MIN/MAX/VAR) or can use the fused SUM/COUNT path. FIRST/LAST
// are served by boundary-row decodes, so they stay fused-compatible.
func needsValues(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		switch it.Agg {
		case sqlparse.AggSum, sqlparse.AggAvg, sqlparse.AggCount,
			sqlparse.AggFirst, sqlparse.AggLast:
		default:
			return true
		}
	}
	return false
}

// needsBoundaries reports whether any item is FIRST or LAST.
func needsBoundaries(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if it.Agg == sqlparse.AggFirst || it.Agg == sqlparse.AggLast {
			return true
		}
	}
	return false
}

// executeAgg runs an aggregate or window plan (Q1-Q3 shapes): the
// planned jobs go to the pool as one morsel batch, then the merge node
// folds the per-participant partials.
func (e *Engine) executeAgg(p *plan, tr *Trace) (*Result, error) {
	col := newCollector(tr)
	col.pagesTotal.Add(int64(p.pagesTotal))
	col.pagesPruned.Add(int64(p.pagesPruned))
	col.tuplesLoaded.Add(p.prunedTuples)
	col.pruneNanos.Add(p.pruneNs)

	// Per-slot partials: Worker.Slot is assigned exactly once per batch,
	// so each participant folds into its own cell with no mutex; the
	// merge node runs sequentially after the batch completes (Run's
	// return establishes the happens-before for the slot-local writes).
	par := p.workers
	nw := len(p.windows)
	locals := make([]partialAgg, par)
	winLocal := make([]partialAgg, par*nw)
	err := e.pool().RunWith(&col.execStats, len(p.slices), par, func(w *exec.Worker, i int) error {
		return e.aggSlice(p, i, &locals[w.Slot], winLocal[w.Slot*nw:(w.Slot+1)*nw], col, w.Arena)
	})
	if err != nil {
		return nil, err
	}
	global := &partialAgg{}
	winAgg := make([]partialAgg, nw)
	for s := range locals {
		global.merge(&locals[s])
	}
	for s := 0; s < par; s++ {
		for wi := 0; wi < nw; wi++ {
			winAgg[wi].merge(&winLocal[s*nw+wi])
		}
	}

	res := &Result{Stats: col.finish()}
	if p.q.Window != nil {
		agg := p.q.Items[0].Agg
		res.Windows = make([]WindowAgg, nw)
		for i, w := range p.windows {
			v, err := winAgg[i].final(agg)
			if err != nil {
				if winAgg[i].overflow {
					return nil, err
				}
				v = 0 // empty window (MIN/MAX have no value)
			}
			res.Windows[i] = WindowAgg{Index: w.Index, Start: w.Start, End: w.End, Value: v, Count: winAgg[i].count}
		}
		return res, nil
	}
	res.Aggregates = make(map[string]float64, len(p.q.Items))
	for _, it := range p.q.Items {
		v, err := global.final(it.Agg)
		if err != nil {
			return nil, err
		}
		res.Aggregates[fmt.Sprintf("%s(A)", it.Agg)] = v
	}
	return res, nil
}

// windowInstances enumerates a query's window set over one series. The
// SW form carries its anchor; GROUP BY TIME anchors at the query's time
// lower bound, or the series' first timestamp when unbounded below.
func windowInstances(w *sqlparse.Window, ser *storage.Series, t1, t2 int64) ([]expr.Window, error) {
	seriesStart, seriesEnd := ser.TimeRange()
	if seriesEnd > t2 {
		seriesEnd = t2
	}
	anchor := w.TMin
	if !w.HasTMin {
		anchor = t1
		if t1 <= math.MinInt64+1 {
			anchor = seriesStart
		}
	}
	return expr.SlidingWindowsHop(anchor, w.DT, w.Hop(), seriesEnd)
}

// aggSlice runs job i of an aggregate plan along its planned outcome:
// find the time-valid row range, then aggregate values over it. arena
// is the executing participant's scratch space.
func (e *Engine) aggSlice(p *plan, i int, local *partialAgg, localWin []partialAgg,
	col *statsCollector, arena *exec.Arena) error {
	sl, out := p.slices[i], p.outcomes[i]
	ser := p.series[0]
	col.slicesRun.Add(1)
	col.tuplesLoaded.Add(int64(sl.Rows()))
	obs.EngineHistSliceRows.Observe(int64(sl.Rows()))

	// Per-slice trace event: row window, fusion decision, and the
	// Proposition 1 n_v the decode plan picks for this page's packing
	// width. Tracing off is a single nil check.
	if col.trace != nil {
		ev := SliceEvent{StartRow: sl.StartRow, EndRow: sl.EndRow, Rows: sl.Rows(), Fused: out >= outFused}
		var blk ts2diff.Block
		if ok, _ := pageBlock(&blk, sl.Pair.Value); ok {
			ev.Width = blk.Width
			ev.Nv = pipeline.ChooseNv(blk.Width, 32)
		}
		sliceStart := time.Now()
		defer func() {
			ev.DurNs = int64(time.Since(sliceStart))
			col.trace.addSlice(ev)
		}()
	}

	// Statistics-level answer: the plan proved the whole page lies in
	// the time range and its header sum is valid, so neither column's
	// payload is touched.
	if out == outHeader {
		local.addSum(sl.Pair.Value.Header.SumValue, int64(sl.Rows()))
		col.statAnswered.Add(1)
		return nil
	}

	// Resolve the time-valid row range [lo, hi) within the slice.
	lo, hi := sl.StartRow, sl.EndRow
	var ts []int64 // decoded timestamps, when needed
	if interval, ok := p.constantIntervalOf(sl.Pair.Time); ok {
		// Proposition 4 constant-interval special case: positions come
		// from arithmetic, no timestamp decoding at all.
		first := sl.Pair.Time.Header.StartTime
		plo, phi := prune.PositionsForConstantInterval(first, interval, sl.Pair.Count(), p.t1, p.t2)
		if plo > lo {
			lo = plo
		}
		if phi < hi {
			hi = phi
		}
	} else if rlo, rhi, ok, err := e.timeBoundsPruned(p, sl, col, arena); ok || err != nil {
		// Proposition 4: the time column scan stopped as soon as the
		// sorted timestamps passed t2 — the tail was never decoded.
		if err != nil {
			return err
		}
		lo, hi = rlo, rhi
	} else {
		var err error
		ts, err = e.decodeColumnRange(ser, sl.Pair.Time, sl.StartRow, sl.EndRow, col)
		if err != nil {
			return err
		}
		rlo, rhi := expr.TimeRangeBounds(ts, p.t1, p.t2)
		lo, hi = sl.StartRow+rlo, sl.StartRow+rhi
	}
	if lo >= hi {
		return nil
	}

	if len(p.windows) > 0 {
		return e.aggWindows(p, sl, out == outFused, lo, hi, ts, localWin, col, arena)
	}

	if p.needFL {
		if err := e.addBoundaries(p, sl, lo, hi, ts, local, col); err != nil {
			return err
		}
	}

	// Fused SUM/COUNT path: no value materialization (Section IV).
	if out == outFused {
		return timed(&col.aggNanos, func() error {
			cuts, sum := [2]int{lo, hi}, [1]int64{}
			ok, err := e.fusedSumSegments(sl.Pair.Value, cuts[:], sum[:], col)
			if err != nil {
				return err
			}
			if ok {
				col.valuesFused.Add(int64(hi - lo))
				local.addSum(sum[0], int64(hi-lo))
				return nil
			}
			vals, err := e.decodeColumnRange(ser, sl.Pair.Value, lo, hi, col)
			if err != nil {
				return err
			}
			col.valuesDecoded.Add(int64(len(vals)))
			p.foldValues(vals, local)
			return nil
		})
	}

	// General path: decode values (chunked when pruning), filter, fold.
	return e.aggDecodedRange(p, sl, out == outPrunedScan, lo, hi, local, col, arena)
}

// timeBoundsPruned resolves the time-valid row range of a slice with a
// streaming scan that stops once the sorted timestamps pass t2
// (Proposition 4's early termination on the time filter). It only
// applies under the prune strategy over order-1-scannable time pages
// without windows (windows need the full timestamp column for
// boundaries).
func (e *Engine) timeBoundsPruned(p *plan, sl pipeline.Slice,
	col *statsCollector, arena *exec.Arena) (lo, hi int, ok bool, err error) {
	t1, t2 := p.t1, p.t2
	if !p.strat.prune || len(p.windows) > 0 {
		return 0, 0, false, nil
	}
	if sl.Pair.Time.Header.EndTime <= t2 {
		return 0, 0, false, nil // nothing to cut; full decode is optimal
	}
	var blk ts2diff.Block
	var scanner pipeline.RangeScanner
	if ok, _ := pageBlock(&blk, sl.Pair.Time); !ok || scanner.Reset(&blk, sl.StartRow) != nil {
		return 0, 0, false, nil // not a TS2DIFF page, or unreadable: full decode reports it
	}
	col.pagesRead.Add(1)
	col.bytesScanned.Add(int64(len(sl.Pair.Time.Data)))
	if cerr := sl.Pair.Time.VerifyChecksum(); cerr != nil {
		return 0, 0, true, cerr
	}
	lo, hi = -1, sl.StartRow
	buf := arena.Int64(exec.ClassPrune, pruneChunk)
	err = timed(&col.decodeNanos, func() error {
		for scanner.Row() < sl.EndRow {
			want := sl.EndRow - scanner.Row()
			if want > pruneChunk {
				want = pruneChunk
			}
			base := scanner.Row()
			k, derr := scanner.Next(buf[:want])
			if derr != nil {
				return derr
			}
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				t := buf[i]
				if lo < 0 && t >= t1 {
					lo = base + i
				}
				if t > t2 {
					col.rowsPruned.Add(int64(sl.EndRow - (base + i)))
					obs.PruneStopsTime.Inc()
					hi = base + i
					return nil
				}
			}
			hi = base + k
		}
		return nil
	})
	if err != nil {
		return 0, 0, true, err
	}
	if lo < 0 {
		lo = hi // no row reached t1
	}
	return lo, hi, true, nil
}

// aggDecodedRange decodes rows [lo, hi), applies value predicates, and
// folds into the partial aggregate. A planned pruned scan streams the
// decode in chunks through a RangeScanner with Proposition 5 stop checks
// between them; otherwise a single range decode covers the rows.
func (e *Engine) aggDecodedRange(p *plan, sl pipeline.Slice, prunedScan bool, lo, hi int,
	local *partialAgg, col *statsCollector, arena *exec.Arena) error {
	if prunedScan {
		var blk ts2diff.Block
		if ok, _ := pageBlock(&blk, sl.Pair.Value); ok {
			col.pagesRead.Add(1)
			col.bytesScanned.Add(int64(len(sl.Pair.Value.Data)))
			if done, err := e.aggPrunedScan(p, sl, &blk, lo, hi, local, col, arena); done || err != nil {
				return err
			}
		}
	}
	vals, err := e.decodeColumnRange(p.series[0], sl.Pair.Value, lo, hi, col)
	if err != nil {
		return err
	}
	col.valuesDecoded.Add(int64(len(vals)))
	return timed(&col.aggNanos, func() error {
		p.foldValues(vals, local)
		return nil
	})
}

// aggPrunedScan streams the value column through a RangeScanner,
// stopping as soon as the Proposition 5 bounds show nothing ahead can
// satisfy the filter. done reports whether the rows were fully handled.
func (e *Engine) aggPrunedScan(p *plan, sl pipeline.Slice, blk *ts2diff.Block, lo, hi int,
	local *partialAgg, col *statsCollector, arena *exec.Arena) (bool, error) {
	bounds := prune.BoundsFromBlock(blk)
	var scanner pipeline.RangeScanner
	if err := scanner.Reset(blk, lo); err != nil {
		return false, nil // unsupported shape; caller falls back
	}
	if err := sl.Pair.Value.VerifyChecksum(); err != nil {
		return true, err
	}
	n := sl.Pair.Count()
	buf := arena.Int64(exec.ClassPrune, pruneChunk)
	// One clock read per phase boundary: each fold's end starts the next
	// decode, and the stage counters are charged once per scan.
	start := time.Now()
	var decodeNs, aggNs int64
	defer func() {
		col.decodeNanos.Add(decodeNs)
		col.aggNanos.Add(aggNs)
		if obs.Enabled() {
			obs.EngineHistPageDecode.Observe(int64(time.Since(start)))
		}
	}()
	mark := start
	for scanner.Row() < hi {
		k, err := scanner.Next(buf[:min(hi-scanner.Row(), pruneChunk)])
		decoded := time.Now()
		decodeNs += int64(decoded.Sub(mark))
		if err != nil {
			return true, err
		}
		if k == 0 {
			break
		}
		vals := buf[:k]
		col.valuesDecoded.Add(int64(k))
		p.foldValues(vals, local)
		mark = time.Now()
		aggNs += int64(mark.Sub(decoded))
		row := scanner.Row()
		if row < hi && bounds.StopValue(vals[k-1], row-1, n, p.c1, p.c2) {
			col.rowsPruned.Add(int64(hi - row))
			break
		}
	}
	return true, nil
}

// foldValues applies the predicates and accumulates matches: the chunk
// fold for a pure range (or no predicate at all), a per-value test only
// when a != predicate is present.
func (p *plan) foldValues(vals []int64, local *partialAgg) {
	switch {
	case len(p.vp) == 0:
		local.foldRange(vals, math.MinInt64, math.MaxInt64, p.needSq)
	case p.rangeOnly:
		local.foldRange(vals, p.c1, p.c2, p.needSq)
	default:
		for _, v := range vals {
			if predsMatch(p.vp, v) {
				local.addValue(v)
			}
		}
	}
}

// rangeOnly reports whether the predicate conjunction is exactly the
// range [c1, c2] that valueRange extracted (no != predicates).
func rangeOnly(vp []sqlparse.Pred) bool {
	for _, p := range vp {
		if p.Op == opNE {
			return false
		}
	}
	return len(vp) > 0
}

// predsMatch evaluates the predicate conjunction against one value.
//
//etsqp:hotpath
func predsMatch(vp []sqlparse.Pred, v int64) bool {
	for _, p := range vp {
		if !p.Op.Eval(v, p.Value) {
			return false
		}
	}
	return true
}

// addBoundaries decodes only the first and last valid rows of a slice
// and folds them into the FIRST/LAST state — the fused-compatible path
// for boundary aggregates.
func (e *Engine) addBoundaries(p *plan, sl pipeline.Slice, lo, hi int, ts []int64,
	local *partialAgg, col *statsCollector) error {
	rowTime := p.rowTimeFunc(sl, ts)
	fv, err := e.decodeColumnRange(p.series[0], sl.Pair.Value, lo, lo+1, col)
	if err != nil {
		return err
	}
	lv, err := e.decodeColumnRange(p.series[0], sl.Pair.Value, hi-1, hi, col)
	if err != nil {
		return err
	}
	local.addBoundary(rowTime(lo), fv[0], rowTime(hi-1), lv[0])
	return nil
}

// rowTimeFunc maps an absolute row index to its timestamp, from decoded
// timestamps when available or constant-interval arithmetic otherwise.
func (p *plan) rowTimeFunc(sl pipeline.Slice, ts []int64) func(i int) int64 {
	if ts != nil {
		start := sl.StartRow
		return func(i int) int64 { return ts[i-start] }
	}
	interval, _ := p.constantIntervalOf(sl.Pair.Time)
	first := sl.Pair.Time.Header.StartTime
	return func(i int) int64 { return first + int64(i)*interval }
}

// aggWindows folds rows [lo, hi) into per-window partials with one pass
// over the slice: the boundaries of every intersecting window cut the
// row range into disjoint segments, a single segment pass fills all
// per-segment partials (on encoded form via the Proposition 3 closed
// forms when fused), and each window then merges its contiguous segment
// run. Overlapping windows (slide < width) thus share the decode and
// the page parse instead of re-scanning per window — the incremental
// evaluation of Section VI's G_sw. Window boundaries map to rows via
// the decoded timestamps or constant-interval arithmetic.
func (e *Engine) aggWindows(p *plan, sl pipeline.Slice, fused bool, lo, hi int, ts []int64,
	localWin []partialAgg, col *statsCollector, arena *exec.Arena) error {
	windows := p.windows
	rowTime := p.rowTimeFunc(sl, ts)
	tLo, tHi := rowTime(lo), rowTime(hi-1)
	// Windows intersecting [tLo, tHi]: starts are sorted, so the
	// intersecting set is one contiguous index range.
	wFirst := sort.Search(len(windows), func(i int) bool { return windows[i].End > tLo })
	wLast := wFirst
	for wLast < len(windows) && windows[wLast].Start <= tHi {
		wLast++
	}
	if wFirst == wLast {
		return nil
	}
	rowOf := func(t int64) int {
		return lo + sort.Search(hi-lo, func(i int) bool { return rowTime(lo+i) >= t })
	}
	// Per-window row ranges and the merged, deduplicated cut set.
	nw := wLast - wFirst
	winLo := make([]int, nw)
	winHi := make([]int, nw)
	cuts := make([]int, 0, 2*nw)
	for k := 0; k < nw; k++ {
		w := windows[wFirst+k]
		winLo[k] = rowOf(w.Start)
		winHi[k] = rowOf(w.End)
		cuts = append(cuts, winLo[k], winHi[k])
	}
	sort.Ints(cuts)
	uniq := cuts[:1]
	for _, c := range cuts[1:] {
		if c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	cuts = uniq
	nseg := len(cuts) - 1
	if nseg <= 0 {
		return nil
	}
	col.windowSegments.Add(int64(nseg))
	segAt := func(row int) int { return sort.SearchInts(cuts, row) }

	if p.needFL {
		// Boundary rows are per-window by definition; they cost two
		// single-row decodes each regardless of overlap.
		for k := 0; k < nw; k++ {
			if winLo[k] >= winHi[k] {
				continue
			}
			if err := e.addBoundaries(p, sl, winLo[k], winHi[k], ts, &localWin[wFirst+k], col); err != nil {
				return err
			}
		}
	}

	mergeSegs := func(fold func(k, s int)) {
		for k := 0; k < nw; k++ {
			for s, sEnd := segAt(winLo[k]), segAt(winHi[k]); s < sEnd; s++ {
				fold(k, s)
			}
		}
	}

	if fused {
		handled := false
		err := timed(&col.windowNanos, func() error {
			sums := arena.Int64(exec.ClassScratch, nseg)
			ok, err := e.fusedSumSegments(sl.Pair.Value, cuts, sums, col)
			if err != nil || !ok {
				return err // !ok falls through to the decoded pass
			}
			handled = true
			for s := 0; s < nseg; s++ {
				col.valuesFused.Add(int64(cuts[s+1] - cuts[s]))
			}
			mergeSegs(func(k, s int) {
				localWin[wFirst+k].addSum(sums[s], int64(cuts[s+1]-cuts[s]))
			})
			return nil
		})
		if err != nil || handled {
			return err
		}
	}

	// Decoded pass (also the fused fallback): materialize the covered
	// rows once, build per-segment partials, merge each window's run.
	vals, err := e.decodeColumnRange(p.series[0], sl.Pair.Value, cuts[0], cuts[nseg], col)
	if err != nil {
		return err
	}
	col.valuesDecoded.Add(int64(len(vals)))
	return timed(&col.windowNanos, func() error {
		segAgg := make([]partialAgg, nseg)
		for s := 0; s < nseg; s++ {
			p.foldValues(vals[cuts[s]-cuts[0]:cuts[s+1]-cuts[0]], &segAgg[s])
		}
		mergeSegs(func(k, s int) {
			localWin[wFirst+k].merge(&segAgg[s])
		})
		return nil
	})
}

// fusedSumSegments fills per-segment sums over the cut partition of a
// value page without materializing values; a plain row range is one
// segment. The page is loaded (charged to the IO stage like the decoding
// paths), verified, and parsed once no matter how many windows cut it;
// ok is false when the codec has no fused path.
//
// A fusion.ErrOverflow from the closed forms is reported as ok=false,
// not as a failure: the fused polynomials can overflow on intermediates
// (n·cur, Δ²·Σi²) even when the decoded fold stays in range, and the
// decoded fallback re-detects any genuine overflow exactly via the
// checked accumulators — COUNT/MIN/MAX over the same rows then still
// answer while SUM/AVG/VAR surface the Section VI-C error from final().
func (e *Engine) fusedSumSegments(p *storage.Page, cuts []int, sums []int64, col *statsCollector) (ok bool, err error) {
	data, release := loadPage(p, col)
	defer release()
	if err := p.VerifyChecksum(); err != nil {
		return false, err
	}
	var blk ts2diff.Block
	if first, pairs, isRLBE := deltaRunsOfData(p.Header.Codec, data); isRLBE {
		err = fusion.SumRangeSegments(first, pairs, cuts, sums)
	} else if isBlock, berr := pageBlockData(&blk, p.Header.Codec, data); !isBlock {
		return false, berr
	} else {
		err = fusion.SumBlockSegments(&blk, cuts, sums)
	}
	if errors.Is(err, fusion.ErrOverflow) {
		return false, nil
	}
	return err == nil, err
}

package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"time"

	"etsqp/internal/encoding"
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

// pruneChunk is the most rows decoded between stop checks: Proposition
// 5's on value-filtered scans, Proposition 4's on timestamp decodes.
const pruneChunk = 1024

// gridChunk is the length of a pruned scan's chunk from row, at most
// pruneChunk rows and none past hi. Row r consumes packed field r-1, so
// a chunk that ends at a row ≡ 1 (mod 64) ends on the payload's 64-field
// grid, and no chunk but the last splits a group between two unpacks.
func gridChunk(row, hi int) int { return min(hi-row, pruneChunk-(row-1)&63) }

// ErrOverflow is the Section VI-C aggregate-overflow sentinel. It is the
// fusion package's sentinel re-exported, so one errors.Is covers every
// report of it: final() and moments.corr() wrap it when an exact total
// leaves int64. Serving layers use it to map overflow to a structured
// client error instead of a generic failure.
var ErrOverflow = fusion.ErrOverflow

// partialAgg is one worker's accumulation state, merged at the merge
// node. Σv is exact in 128 bits, so no fold order, slicing or merge can
// change it, and overflow is judged once, on the total, by final(). The
// count is a plain add: no store holds 2^63 rows.
type partialAgg struct {
	sum   encoding.Int128
	sumSq wide
	count int64
	min   int64
	max   int64
	seen  bool

	// FIRST/LAST tracking: value at the earliest/latest timestamp seen.
	firstT, firstV int64
	lastT, lastV   int64
	hasFL          bool
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
func (p *partialAgg) addValue(v int64) {
	p.sum = p.sum.AddInt64(v)
	p.sumSq.addMul(v, v)
	p.count++
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
// branch-free pass computes the chunk's exact (count, sum, min, max)
// and mergeChunk folds them in. With sq (the plan has a VAR to answer)
// every value takes addValue, the one fold that keeps Σv².
//
//etsqp:hotpath
//etsqp:noescape
func (p *partialAgg) foldRange(vals []int64, c1, c2 int64, sq bool) {
	if c1 > c2 {
		return
	}
	span := uint64(c2) - uint64(c1)
	if sq {
		for _, v := range vals {
			if inSpan(v, c1, span) {
				p.addValue(v)
			}
		}
		return
	}
	for len(vals) > 0 {
		chunk := vals[:min(len(vals), pruneChunk)]
		vals = vals[len(chunk):]
		if count, sum, lo, hi := rangeFold(chunk, c1, span); count > 0 {
			p.mergeChunk(count, sum, lo, hi)
		}
	}
}

// inSpan reports c1 <= v <= c1+span: as unsigned differences, v-c1 is at
// most span exactly inside the range.
//
//etsqp:hotpath
//etsqp:inline
func inSpan(v, c1 int64, span uint64) bool { return uint64(v)-uint64(c1) <= span }

// rangeFold is the chunk kernel of foldRange: count, exact sum, minimum
// and maximum of the values v with d = v-c1 <= span (unsigned), with no
// per-value control flow. The borrow of span-d is 1 outside the range;
// negated it is a mask that drops the value from the sums and the
// maximum. The minimum needs no mask: d maps the range onto [0, span] in
// order and everything outside it above span, so the smallest d of the
// chunk is the smallest selected one whenever anything is selected. With
// count == 0 the bounds are meaningless. The sum is exact for chunks of
// up to 2^31 values: beside the wrapping Σv it keeps Σ(v>>32), and
// Σv = 2^32·Σ(v>>32) + Σ(v mod 2^32), whose second term is below 2^63
// and so is the wrapping difference of the two.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
func rangeFold(vals []int64, c1 int64, span uint64) (count int64, sum encoding.Int128, lo, hi int64) {
	dmin, dmax := ^uint64(0), uint64(0)
	var outside, total, high uint64
	for _, v := range vals {
		d := uint64(v) - uint64(c1)
		_, out := bits.Sub64(span, d, 0)
		drop := -out // all ones outside the range
		outside += out
		total += uint64(v) &^ drop
		high += uint64(v>>32) &^ drop
		dmin = min(dmin, d)
		dmax = max(dmax, d&^drop)
	}
	sum = encoding.Int128{}.AddMul(int64(high), 1<<32).AddInt64(int64(total - high<<32))
	return int64(len(vals)) - int64(outside), sum, c1 + int64(dmin), c1 + int64(dmax)
}

// mergeChunk folds a chunk's (count > 0, exact sum, min, max) into the
// running state.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
func (p *partialAgg) mergeChunk(count int64, sum encoding.Int128, lo, hi int64) {
	if !p.seen || lo < p.min {
		p.min = lo
	}
	if !p.seen || hi > p.max {
		p.max = hi
	}
	p.addSum(sum, count)
}

// addSum folds an exact (sum, count) pair: a fused segment's, a chunk's
// or a partial's.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
func (p *partialAgg) addSum(sum encoding.Int128, count int64) {
	p.sum = p.sum.Add(sum)
	p.count += count
	p.seen = p.seen || count > 0
}

// merge combines a worker's partial into the receiver.
//
//etsqp:hotpath
//etsqp:nobce
func (p *partialAgg) merge(o *partialAgg) {
	if o.seen {
		if !p.seen || o.min < p.min {
			p.min = o.min
		}
		if !p.seen || o.max > p.max {
			p.max = o.max
		}
		p.seen = true
	}
	p.addSum(o.sum, o.count)
	p.sumSq.add(o.sumSq)
	if o.hasFL {
		p.addBoundary(o.firstT, o.firstV, o.lastT, o.lastV)
	}
}

// final evaluates the aggregate function from the accumulated sums.
// SUM, AVG and VAR are the Section VI-C error when the total Σv leaves
// int64; COUNT, MIN, MAX, FIRST and LAST never read it.
func (p *partialAgg) final(agg sqlparse.AggFunc) (float64, error) {
	sum, ok := p.sum.Int64()
	if !ok {
		switch agg {
		case sqlparse.AggSum, sqlparse.AggAvg, sqlparse.AggVar:
			return 0, fmt.Errorf("engine: %s overflow (Section VI-C check): %w", agg, ErrOverflow)
		}
	}
	switch agg {
	case sqlparse.AggCount:
		return float64(p.count), nil
	case sqlparse.AggSum:
		return float64(sum), nil
	case sqlparse.AggAvg:
		if p.count == 0 {
			return 0, nil
		}
		return float64(sum) / float64(p.count), nil
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
		n := big.NewInt(p.count)
		v, _ := new(big.Rat).SetFrac(p.spread(), n.Mul(n, n)).Float64() // rounded once
		return v, nil
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

// spread is n·Σv² − (Σv)², n² times the population variance, exactly.
func (p *partialAgg) spread() *big.Int {
	n, s := big.NewInt(p.count), p.sum.Big()
	return n.Mul(n, p.sumSq.big()).Sub(n, s.Mul(s, s))
}

// wide is an exact unsigned sum of 128-bit products |x|·|y| (addMul): no
// merge order can change it. Fewer than 2^63 terms of at most 2^126 stay
// below 2^189, so three words never carry out before the count overflows.
type wide struct{ hi, mid, lo uint64 }

func (w *wide) addMul(x, y int64) {
	hi, lo := bits.Mul64(encoding.Magnitude(x), encoding.Magnitude(y))
	w.add(wide{0, hi, lo})
}

func (w *wide) add(o wide) {
	var c uint64
	w.lo, c = bits.Add64(w.lo, o.lo, 0)
	w.mid, c = bits.Add64(w.mid, o.mid, c)
	w.hi += o.hi + c
}

func (w *wide) big() *big.Int {
	x := new(big.Int).SetUint64(w.hi)
	x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(w.mid))
	return x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(w.lo))
}

// needsValues reports whether the aggregate set requires materialized
// values (MIN/MAX/VAR) or can use the fused SUM/COUNT path. FIRST/LAST
// read their boundary rows from the fused job's read of the page, so
// they stay fused-compatible.
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

// executeAgg runs an aggregate or window plan (Q1-Q3 shapes): the
// planned jobs go to the pool as one morsel batch, then the merge node
// folds the per-participant partials. A plain aggregate is the
// one-window case, so every participant holds one partial per window
// (at least one) and the result reads them as Aggregates or Windows.
func (e *Engine) executeAgg(p *plan, tr *Trace) (*Result, error) {
	col := newCollector(tr)
	col.pagesTotal.Add(int64(p.pagesTotal))
	col.pagesPruned.Add(int64(p.pagesPruned))
	col.tuplesLoaded.Add(p.prunedTuples)
	col.pruneNanos.Add(p.pruneNs)
	if obs.Enabled() {
		// Plan-time decisions count once the plan runs: EXPLAIN builds
		// the same plan and must not move them.
		obs.PrunePagesValue.Add(int64(p.pagesPruned))
		obs.PrunePagesVacuous.Add(int64(p.pagesVacuous))
	}

	// Per-slot partials and cut scratch: Worker.Slot is assigned exactly
	// once per batch, so each participant folds into its own cells with
	// no mutex; the merge node runs sequentially after the batch
	// completes (Run's return establishes the happens-before for the
	// slot-local writes) and folds every slot into slot 0's row.
	par, nw := p.workers, max(1, len(p.windows))
	parts := make([]partialAgg, par*nw)
	scratch := make([][]int, par)
	err := e.pool().RunWith(&col.execStats, len(p.slices), par, func(w *exec.Worker, i int) error {
		return e.aggSlice(p, i, parts[w.Slot*nw:(w.Slot+1)*nw], &scratch[w.Slot], col, w.Arena)
	})
	if err != nil {
		return nil, err
	}
	for s := 1; s < par; s++ {
		for k := range nw {
			parts[k].merge(&parts[s*nw+k])
		}
	}

	res := &Result{Stats: col.finish()}
	if p.q.Window != nil {
		agg := p.q.Items[0].Agg
		res.Windows = make([]WindowAgg, len(p.windows))
		for i, w := range p.windows {
			v, err := parts[i].final(agg)
			if errors.Is(err, ErrOverflow) {
				return nil, err
			} else if err != nil {
				v = 0 // empty window (MIN/MAX have no value)
			}
			res.Windows[i] = WindowAgg{Index: w.Index, Start: w.Start, End: w.End, Value: v, Count: parts[i].count}
		}
		return res, nil
	}
	res.Aggregates = make(map[string]float64, len(p.q.Items))
	for _, it := range p.q.Items {
		v, err := parts[0].final(it.Agg)
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
// find the time-valid row range [lo, hi), cut it into the segments its
// windows need — a plain aggregate is one window over one segment — and
// fold the values into the windows' partials in one pass. part holds
// the executing participant's partial per window, scratch its cut
// buffer and arena its scratch space.
func (e *Engine) aggSlice(p *plan, i int, part []partialAgg, scratch *[]int,
	col *statsCollector, arena *exec.Arena) error {
	sl, out := p.slices[i], p.outcomes[i]
	col.slicesRun.Add(1)
	col.tuplesLoaded.Add(int64(sl.Rows()))
	obs.EngineHistSliceRows.Observe(int64(sl.Rows()))

	var vr pageRead // the job's one read of its value page
	// Per-slice trace event: row window, fusion decision and the packing
	// width of a TS2DIFF page the job read. Tracing off is a nil check.
	if col.trace != nil {
		ev := SliceEvent{StartRow: sl.StartRow, EndRow: sl.EndRow, Rows: sl.Rows(), Fused: out == outFused}
		sliceStart := time.Now()
		defer func() {
			if vr.form == formBlock {
				ev.Width, ev.packed = vr.blk.Width, true
			}
			ev.DurNs = int64(time.Since(sliceStart))
			col.trace.addSlice(ev)
		}()
	}

	// The time-valid row range [lo, hi) within the clock's rows. p.t2 is
	// at most MaxInt64-1, so t2+1 cannot wrap.
	clock, end, err := e.clockOf(p, sl, col, arena)
	if err != nil {
		return err
	}
	lo := clock.row(p.t1, sl.StartRow, end)
	hi := clock.row(p.t2+1, lo, end)
	if lo >= hi {
		return nil
	}

	// The cut partition: window k folds rows [winLo[k], winHi[k]) into
	// part[k], and the sorted cuts bound the disjoint segments.
	one := [4]int{lo, hi, lo, hi}
	winLo, winHi, cuts := one[0:1], one[1:2], one[2:4]
	if len(p.windows) > 0 {
		var first int
		first, winLo, winHi, cuts = p.windowCuts(clock, lo, hi, scratch)
		if len(cuts) < 2 {
			return nil
		}
		part = part[first : first+len(winLo)]
		col.windowSegments.Add(int64(len(cuts) - 1))
	}
	return e.foldSegments(p, sl.Pair.Value, out, &vr, cuts, winLo, winHi, clock, part, col, arena)
}

// clockOf builds job sl's row clock from one read of its time page and
// returns the end of the rows the clock maps: interval arithmetic on a
// width-0 order-2 block under a constInterval strategy (its checksum
// verified, no read charged), else the cache or a decode of that parse.
// Under the prune strategy a page reaching past t2 decodes into the
// arena and stops after the first chunk past t2 (decodeUntil): no later
// row is in range, in a window or a FIRST/LAST boundary.
func (e *Engine) clockOf(p *plan, sl Slice, col *statsCollector, arena *exec.Arena) (c rowClock, end int, err error) {
	pg := sl.Pair.Time
	c = rowClock{start: sl.StartRow, first: pg.Header.StartTime}
	var tr pageRead
	if p.strat.constInterval {
		if ok, _ := tr.parse(pg, nil); ok { // else a cache miss fails
			if interval, ok := pipeline.ConstantInterval(&tr.blk); ok {
				c.interval = interval
				return c, sl.EndRow, pg.VerifyChecksum()
			}
		}
	}
	stop, buf := int64(math.MaxInt64), []int64(nil)
	if p.strat.prune && p.t2 < pg.Header.EndTime {
		stop, buf = p.t2, arena.Int64(exec.ClassClock, sl.Rows())
	}
	c.ts, err = e.decodeColumnRange(p.series[0], pg, &tr, sl.StartRow, sl.EndRow, stop, buf, col)
	return c, sl.StartRow + len(c.ts), err
}

// windowCuts maps the windows that intersect rows [lo, hi) to row
// ranges. It returns the first such window's index, each one's
// [winLo, winHi), and the sorted, deduplicated cut set, all carved from
// the worker's scratch buffer.
func (p *plan) windowCuts(clock rowClock, lo, hi int, scratch *[]int) (first int, winLo, winHi, cuts []int) {
	windows := p.windows
	tLo, tHi := clock.at(lo), clock.at(hi-1)
	// Starts are sorted, so the intersecting set is one contiguous index
	// range.
	first = sort.Search(len(windows), func(i int) bool { return windows[i].End > tLo })
	last := first
	for last < len(windows) && windows[last].Start <= tHi {
		last++
	}
	nw := last - first
	if cap(*scratch) < 4*nw {
		*scratch = make([]int, 4*nw)
	}
	buf := (*scratch)[:4*nw]
	winLo, winHi, cuts = buf[:nw], buf[nw:2*nw], buf[2*nw:2*nw:4*nw]
	for k, w := range windows[first:last] {
		winLo[k], winHi[k] = clock.row(w.Start, lo, hi), clock.row(w.End, lo, hi)
		cuts = append(cuts, winLo[k], winHi[k])
	}
	slices.Sort(cuts)
	return first, winLo, winHi, slices.Compact(cuts)
}

// foldSegments is the one value pass of an aggregate job over the cut
// partition, from one read of the value page (vr), by one of three
// routes: exact per-segment sums on encoded form when the job is fused
// (Proposition 3), or row counts alone when the plan reads no sum; the
// scanner when the plan scans under the prune strategy; else rows
// [cuts[0], cuts[n]) decoded once — from the cache, or from vr — and
// folded segment by segment. Every route's sums are exact, so a fused
// job never demotes. Each segment goes to the windows covering it —
// straight into the partial when one window does (a plain aggregate's
// only segment, a tumbling window's), else through one segment partial
// merged into each — so overlapping windows share the page parse and
// the decode instead of re-scanning per window: Section VI's G_sw,
// evaluated incrementally. FIRST/LAST read each window's boundary rows
// from the same read. The pass's time, less the decode's, is the
// aggregate stage of a plain aggregate and the window stage of a window.
func (e *Engine) foldSegments(p *plan, page *storage.Page, out sliceOutcome, vr *pageRead,
	cuts, winLo, winHi []int, clock rowClock, part []partialAgg, col *statsCollector, arena *exec.Arena) error {
	from, to := cuts[0], cuts[len(cuts)-1]
	var sums []encoding.Int128
	var vals []int64
	var sc segScan
	var ns int64
	var err error
	switch out {
	case outFused:
		start := time.Now()
		if _, err = vr.read(page, arena.Runs(), col); err != nil {
			return err
		}
		// COUNT, FIRST and LAST read no sum: the fold adds row counts.
		if p.needSum {
			sums = arena.Sums(len(cuts) - 1)
			if err = vr.segmentSums(cuts, sums); err != nil {
				return err
			}
		}
		ns = int64(time.Since(start))
	case outPrunedScan:
		// A value filter excludes FIRST/LAST, so a scan has no boundaries.
		if _, err = vr.read(page, nil, col); err != nil {
			return err
		}
		sc = segScan{bounds: prune.BoundsFromBlock(&vr.blk), n: vr.blk.Count, hi: to,
			buf: arena.Int64(exec.ClassPrune, pruneChunk)}
		sc.onePass = p.sumFold && onePassExact(sc.bounds, &vr.blk)
		if err = sc.s.Reset(&vr.blk, from); err != nil {
			return err
		}
	}
	fused, scan := out == outFused, out == outPrunedScan
	if fused {
		col.valuesFused.Add(int64(to - from))
	} else if !scan {
		if vals, err = e.decodeColumnRange(p.series[0], page, vr, from, to, math.MaxInt64, nil, col); err != nil {
			return err
		}
		col.valuesDecoded.Add(int64(len(vals)))
	}
	start := time.Now()
	for k := 0; p.needFL && k < len(winLo); k++ {
		if err := addBoundary(&part[k], vr, vals, from, winLo[k], winHi[k], clock); err != nil {
			return err
		}
	}
	for s, kLo, kHi := 0, 0, 0; s < len(cuts)-1; s++ {
		// Windows [kLo, kHi) start at or before the segment and end after
		// it. Starts and ends are both sorted, so the run only slides right.
		for kHi < len(winLo) && winLo[kHi] <= cuts[s] {
			kHi++
		}
		for kLo < kHi && winHi[kLo] <= cuts[s] {
			kLo++
		}
		ws := part[kLo:kHi] // none in a gap between windows
		var acc partialAgg
		local := &acc
		if len(ws) == 1 {
			local = &ws[0]
		}
		switch {
		case fused && sums == nil:
			local.addSum(encoding.Int128{}, int64(cuts[s+1]-cuts[s]))
		case fused:
			local.addSum(sums[s], int64(cuts[s+1]-cuts[s]))
		case scan:
			if err := sc.fold(p, cuts[s+1], local, col); err != nil {
				return err
			}
		default:
			p.foldValues(vals[cuts[s]-from:cuts[s+1]-from], local)
		}
		for k := 0; len(ws) > 1 && k < len(ws); k++ {
			ws[k].merge(&acc)
		}
	}
	ns += int64(time.Since(start))
	if scan {
		// The rows counters are shared by the workers: one add per scan.
		rows := int64(sc.s.Row() - from)
		col.valuesDecoded.Add(rows)
		if sc.onePass {
			sc.decodeNs = ns
			obs.PipelineValuesUnpacked.Add(rows)
		}
		col.decodeNanos.Add(sc.decodeNs)
		obs.EngineHistPageDecode.Observe(ns)
		ns -= sc.decodeNs
	}
	if len(p.windows) > 0 {
		col.windowNanos.Add(ns)
	} else {
		col.aggNanos.Add(ns)
	}
	return nil
}

// segmentSums fills sums with the exact sums over the cut partition on
// encoded form: fusion.SumRangeSegmentsExact over the runs,
// SumBlockSegmentsExact over a block. Neither can overflow; a total that
// leaves int64 is final()'s to report.
func (r *pageRead) segmentSums(cuts []int, sums []encoding.Int128) error {
	if r.form == formRuns {
		return fusion.SumRangeSegmentsExact(r.first, r.runs, cuts, sums)
	}
	return fusion.SumBlockSegmentsExact(&r.blk, cuts, sums)
}

// addBoundary folds the first and last row of a window's rows [lo, hi)
// into its FIRST/LAST state: from the decoded values (rows from base on)
// when the job decoded, else from the job's read of the page.
func addBoundary(part *partialAgg, vr *pageRead, vals []int64, base, lo, hi int, clock rowClock) error {
	if lo == hi {
		return nil
	}
	if vals != nil {
		part.addBoundary(clock.at(lo), vals[lo-base], clock.at(hi-1), vals[hi-1-base])
		return nil
	}
	fv, err := vr.at(lo)
	lv, err2 := vr.at(hi - 1)
	part.addBoundary(clock.at(lo), fv, clock.at(hi-1), lv)
	return cmp.Or(err, err2)
}

// segScan is the scanner route of foldSegments: one RangeScanner walks
// the job's rows of a TS2DIFF block in gridChunk chunks, cut short at
// each segment's end. Over the rest of the page the header's reach
// (prune.Bounds.Reach) stops the scan as soon as nothing ahead can
// satisfy the filter (Proposition 5), and the segments after the stop
// get no rows. A sumFold plan takes the one pass (RangeScanner.ScanFold,
// whose time is all decode stage) on a page onePassExact admits; any
// other scan decodes each chunk and folds it (foldValues).
type segScan struct {
	s        pipeline.RangeScanner
	bounds   prune.Bounds
	buf      []int64 // the chunk buffer, in the worker's arena
	onePass  bool
	n, hi    int   // the page's rows; the scan's end, which a stop lowers
	decodeNs int64 // the decode phases, when not onePass
}

// onePassExact admits a page to the one pass: the header's reach over
// the whole page bounds every row's magnitude, and pruneChunk rows of
// that magnitude sum inside int64, so every chunk's wrapping sum is
// exact. An order-2 or width-63/64 page has no reach.
func onePassExact(bounds prune.Bounds, b *ts2diff.Block) bool {
	lo, hi, reach := bounds.Reach(b.First, uint64(b.Count-1))
	return reach && max(encoding.Magnitude(lo), encoding.Magnitude(hi)) <= math.MaxInt64/pruneChunk
}

// fold scans the rows before end, a segment's, into local.
//
//etsqp:hotpath
//etsqp:noescape
func (sc *segScan) fold(p *plan, end int, local *partialAgg, col *statsCollector) error {
	for row := sc.s.Row(); row < min(end, sc.hi); row = sc.s.Row() {
		want := min(gridChunk(row, sc.hi), end-row)
		var last int64
		var err error
		if sc.onePass {
			last, err = p.scanFold(&sc.s, local, sc.buf[:want])
		} else {
			start := time.Now()
			var k int
			k, err = sc.s.Next(sc.buf[:want])
			sc.decodeNs += int64(time.Since(start))
			if k > 0 {
				p.foldValues(sc.buf[:k], local)
				last = sc.buf[k-1]
			}
		}
		if err != nil || sc.s.Row() == row {
			return err
		}
		if next := sc.s.Row(); next < sc.hi && sc.bounds.StopValue(last, next-1, sc.n, p.c1, p.c2) {
			col.rowsPruned.Add(int64(sc.hi - next))
			sc.hi = next
		}
	}
	return nil
}

// scanFold is one chunk of a sumFold plan's pruned scan in one pass: the
// fields of up to len(buf) rows are unpacked into buf by one ReadFields
// call, and the rows filtered, counted and summed without being stored
// (RangeScanner.ScanFold); on a page onePassExact admits, the chunk's
// wrapping sum is its exact sum. It returns the chunk's last value; the
// partial's minimum and maximum are not kept.
//
//etsqp:hotpath
//etsqp:noescape
func (p *plan) scanFold(s *pipeline.RangeScanner, local *partialAgg, buf []int64) (last int64, err error) {
	count, sum, last, err := s.ScanFold(buf, p.c1, uint64(p.c2)-uint64(p.c1))
	local.addSum(encoding.Int128{}.AddInt64(sum), count)
	return last, err
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

// rowClock maps an absolute row index of a job to its timestamp (at)
// and a timestamp to a row (row), from the job's decoded timestamps when
// it has them or constant-interval arithmetic otherwise.
type rowClock struct {
	ts              []int64 // timestamps of rows start, start+1, ...
	start           int
	first, interval int64
}

func (c rowClock) at(i int) int64 {
	if c.ts != nil {
		return c.ts[i-c.start]
	}
	return c.first + int64(i)*c.interval
}

// row returns the first row in [lo, hi) whose timestamp is at least t,
// or hi when there is none. It is the job's one map from time to rows:
// [row(t1), row(t2+1)) is the range Proposition 4 keeps, and row(Start)
// and row(End) a window's rows. A constant clock answers by arithmetic,
// with no timestamp decoded; decoded timestamps by a binary search,
// written out because sort.Search's closure would move the clock to the
// heap on the batch cursor's path.
//
//etsqp:noescape
func (c rowClock) row(t int64, lo, hi int) int {
	if c.ts != nil {
		for lo < hi {
			h := int(uint(lo+hi) >> 1)
			if c.ts[h-c.start] < t {
				lo = h + 1
			} else {
				hi = h
			}
		}
		return lo
	}
	if t <= c.at(lo) {
		return lo
	}
	if c.interval <= 0 {
		return hi // every row reads first, and t is past it
	}
	// t > first: the distance is exact as a uint64.
	r := (uint64(t)-uint64(c.first)-1)/uint64(c.interval) + 1
	return int(min(r, uint64(hi)))
}

package engine

import (
	"fmt"
	"math"
	"time"

	"etsqp/internal/expr"
	"etsqp/internal/prune"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// strategy spells an execution mode out as the decisions that differ
// between modes. This table is the only place a Mode is interpreted:
// the planner and the decoders read these fields.
type strategy struct {
	name            string
	fuse            bool // SUM/COUNT/AVG may aggregate on encoded form (Section IV)
	prune           bool // Section V header, time-stop and value-stop rules
	constInterval   bool // width-0 order-2 time pages resolve rows by arithmetic
	sliceEveryPage  bool // every page is cut across all workers (per-slice prefix dependency)
	valueWiseDecode bool // the codec's value-at-a-time decoder, no vector kernels
}

var strategies = [...]strategy{
	ModeETSQP:      {name: "ETSQP", fuse: true, constInterval: true},
	ModeETSQPPrune: {name: "ETSQP-prune", fuse: true, prune: true, constInterval: true},
	ModeSerial:     {name: "Serial", valueWiseDecode: true},
	ModeSBoost:     {name: "SBoost", sliceEveryPage: true},
	ModeFastLanes:  {name: "FastLanes", valueWiseDecode: true},
}

// strategy returns the mode's row. A value outside the table runs as
// plain ETSQP, as it did under the mode comparisons the table replaced.
func (m Mode) strategy() *strategy {
	if m < 0 || int(m) >= len(strategies) {
		m = ModeETSQP
	}
	return &strategies[m]
}

// sliceOutcome is the path the plan assigns one aggregation job, from
// the page headers and the predicates alone, and the path it runs: the
// closed forms sum exactly, so a fused job never demotes to a decode.
type sliceOutcome uint8

const (
	outDecoded    sliceOutcome = iota // decode the rows, filter, fold
	outPrunedScan                     // scan in chunks with Proposition 5 stop checks
	outFused                          // aggregate on encoded form (Section IV)
)

// Query shapes, as PlanInfo.Shape prints them.
const (
	shapeAggregate = "aggregate"
	shapeWindow    = "window"
	shapeScan      = "scan"
	shapeMerge     = "merge"
	shapeJoin      = "join"
)

// plan is the physical plan of one query: every decision Algorithm 2
// takes before the pipelines start, taken once. The executors consume
// it, Explain renders it, and a traced run times its construction.
type plan struct {
	q       *sqlparse.Query // the statement, a Q3 subquery folded into it
	mode    string
	strat   *strategy
	shape   string
	series  []string
	workers int

	t1, t2    int64           // conjunctive TIME bounds
	vp        []sqlparse.Pred // value predicates
	c1, c2    int64           // the range hull of vp
	rangeOnly bool            // vp is exactly [c1, c2] (no != predicate)
	needFL    bool            // FIRST/LAST requested
	needSq    bool            // VAR requested: folds must keep the sum of squares
	needSum   bool            // SUM or AVG requested: fused jobs compute segment sums
	sumFold   bool            // a non-empty range filter under COUNT/SUM/AVG alone: a pruned scan may fold in one pass

	// One snapshot of each series' time-relevant pages, read by every
	// executor: the driving (first) series' less those header pruning
	// skips, a merge's or join's second series' (side), and the jobs over
	// pages. Row shapes (scan, merge, join, CORR) stream their ranges'
	// sub-slices and carry no jobs; pagesTotal counts every series' pages.
	pagesTotal   int
	pagesPruned  int
	prunedTuples int64
	pagesVacuous int // kept pages whose statistics make the range filter vacuous
	pages        []storage.PagePair
	side         []storage.PagePair
	slices       []Slice
	outcomes     []sliceOutcome // aggregate shapes: one per job
	pruneNs      int64          // page selection, reported as the prune stage

	windows []expr.Window
	cuts    [][2]int64 // row shapes: time-range merge nodes (Figure 9)
}

// newPlan compiles a parsed statement against the store.
func (e *Engine) newPlan(q *sqlparse.Query) (*plan, error) {
	p := &plan{q: q, mode: e.Mode.String(), strat: e.Mode.strategy(), workers: e.workers()}
	switch {
	case q.Sub != nil:
		// Q3: SELECT agg(A) FROM (SELECT * FROM ts WHERE ...). The filter
		// pushes down into the aggregation pipeline (Equation 1's
		// single-column predicate separation).
		sub := q.Sub
		if sub.Sub != nil || len(sub.Series) != 1 || !sub.Items[0].Star {
			return nil, fmt.Errorf("engine: only single-series star subqueries are supported")
		}
		outer := *q
		outer.Sub = nil
		outer.Series = sub.Series
		if outer.Window == nil {
			outer.Window = sub.Window
		}
		outer.Preds = append(append([]sqlparse.Pred(nil), sub.Preds...), q.Preds...)
		p.q, q = &outer, &outer
		p.shape, p.series = shapeAggregate, q.Series
	case q.UnionWith != "":
		if len(q.Series) != 1 {
			return nil, fmt.Errorf("engine: UNION requires a single left series")
		}
		p.shape, p.series = shapeMerge, []string{q.Series[0], q.UnionWith}
	case len(q.Series) == 2:
		if it := q.Items[0]; it.Agg != sqlparse.AggCorr && !it.Star && it.Add == nil {
			return nil, fmt.Errorf("engine: unsupported join projection")
		}
		p.shape, p.series = shapeJoin, q.Series
	case len(q.Series) == 1 && q.Items[0].Star:
		p.shape, p.series = shapeScan, q.Series
	case len(q.Series) == 1:
		p.shape, p.series = shapeAggregate, q.Series
	default:
		return nil, fmt.Errorf("engine: unsupported query shape")
	}
	var sers [2]*storage.Series // the driving (first) series, and a join's or UNION's second
	for i, name := range p.series {
		s, ok := e.Store.Series(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown series %q", name)
		}
		sers[i] = s
	}
	// Open bounds: TIME (-inf, +inf), values all of int64.
	p.t1, p.t2 = rangeHull(q.Preds, true, math.MinInt64+1, math.MaxInt64-1)
	p.vp = valuePreds(q.Preds)
	p.c1, p.c2 = rangeHull(p.vp, false, math.MinInt64, math.MaxInt64)
	p.rangeOnly = rangeOnly(p.vp)
	agg := p.shape == shapeAggregate
	if agg {
		if err := p.checkAggregates(); err != nil {
			return nil, err
		}
	}
	if p.shape == shapeMerge && len(p.vp) > 0 {
		return nil, fmt.Errorf("engine: UNION takes TIME predicates only")
	}

	// Page relevance by time (binary-searched index, all modes) and, for
	// a single series, by value statistics (prune strategy).
	pruneStart := time.Now()
	p.pages = sers[0].PagesInRange(p.t1, p.t2)
	p.pagesTotal = len(p.pages)
	if sers[1] != nil {
		p.side = sers[1].PagesInRange(p.t1, p.t2)
	} else if p.strat.prune && len(p.vp) > 0 {
		p.pages, p.pagesPruned, p.prunedTuples = prune.SkipPagesByValue(p.pages, p.c1, p.c2)
	}
	p.pruneNs = int64(time.Since(pruneStart))

	if !agg {
		// Row shapes stream batch cursors over time-range merge nodes. A
		// LIMIT plan keeps one range, so a single cursor streams the pages
		// in order and stops once the limit is met.
		n := p.workers
		if q.Limit > 0 {
			n = 1
		}
		p.cuts = cutPages(p.pages, p.t1, p.t2, n)
		for _, c := range p.cuts { // a second-series page a cut splits streams in both ranges
			p.pagesTotal += len(storage.PagesIn(p.side, c[0], c[1]))
		}
		return p, nil
	}
	if q.Window != nil {
		var err error
		if p.windows, err = windowInstances(q.Window, sers[0], p.t1, p.t2); err != nil {
			return nil, err
		}
		p.shape = shapeWindow
	}
	p.slices = e.jobsFor(p.pages)
	p.outcomes = make([]sliceOutcome, len(p.slices))
	fusible := p.strat.fuse && !needsValues(q.Items)
	for i, sl := range p.slices {
		p.outcomes[i] = p.outcomeOf(sl, fusible)
	}
	return p, nil
}

// corr reports the CORR(ts1.A, ts2.A) form of the join shape.
func (p *plan) corr() bool {
	return p.shape == shapeJoin && p.q.Items[0].Agg == sqlparse.AggCorr
}

// checkAggregates rejects the aggregate forms no pipeline implements and
// records what the value folds must keep.
func (p *plan) checkAggregates() error {
	extremes := false
	for _, it := range p.q.Items {
		if it.Agg == sqlparse.AggNone {
			return fmt.Errorf("engine: non-aggregate item in aggregation query")
		}
		if it.Col.IsTime() {
			return fmt.Errorf("engine: aggregates over TIME are not supported")
		}
		p.needSq = p.needSq || it.Agg == sqlparse.AggVar
		p.needSum = p.needSum || it.Agg == sqlparse.AggSum || it.Agg == sqlparse.AggAvg
		p.needFL = p.needFL || it.Agg == sqlparse.AggFirst || it.Agg == sqlparse.AggLast
		extremes = extremes || it.Agg == sqlparse.AggMin || it.Agg == sqlparse.AggMax
	}
	p.sumFold = p.rangeOnly && p.c1 <= p.c2 && !p.needSq && !extremes
	if p.needFL && len(p.vp) > 0 {
		return fmt.Errorf("engine: FIRST/LAST with value predicates is not supported")
	}
	if p.q.Window != nil && len(p.q.Items) > 1 {
		return fmt.Errorf("engine: sliding-window queries take a single aggregate item")
	}
	return nil
}

// outcomeOf plans one aggregation job. fusible says the aggregate set
// can run on encoded form under this strategy; whether this job does
// also depends on its page statistics versus the value predicates.
func (p *plan) outcomeOf(sl Slice, fusible bool) sliceOutcome {
	h := sl.Pair.Value.Header
	fused := fusible && len(p.vp) == 0
	if !fused && fusible && p.rangeOnly && prune.AllValuesInRange(h, p.c1, p.c2) {
		// The page's min/max statistics prove every row satisfies the
		// range filter, so the predicate is vacuous here and the fused
		// no-materialization path stays available despite it (the
		// Section V statistics reused to keep Section IV fusion on).
		fused = true
		if sl.StartRow == 0 {
			p.pagesVacuous++
		}
	}
	// The fused routes read a TS2DIFF block or RLBE runs, the scanner a
	// block; a page of any other codec is decoded.
	switch form := formOf(h.Codec); {
	case fused && form != formNone:
		return outFused
	case p.strat.prune && len(p.vp) > 0 && form == formBlock:
		return outPrunedScan
	}
	return outDecoded
}

// info renders the plan as the EXPLAIN value.
func (p *plan) info() *PlanInfo {
	info := &PlanInfo{
		Mode: p.mode, Shape: p.shape, Series: p.series, Workers: p.workers,
		Pages: p.pagesTotal, PagesPruned: p.pagesPruned, Jobs: len(p.slices),
		Pruning: p.strat.prune && len(p.vp) > 0,
		Windows: len(p.windows), MergeRanges: len(p.cuts),
	}
	if len(p.slices) == 0 {
		info.Jobs = len(p.pages) // a cursor yields one batch per page
	}
	for i, sl := range p.slices {
		if sl.Rows() < sl.Pair.Count() {
			info.Sliced = true
		}
		if p.outcomes != nil && p.outcomes[i] == outFused {
			info.FusedJobs++
		}
	}
	info.Fused = info.FusedJobs > 0
	return info
}

// Explain builds the execution plan for a statement without running it.
func (e *Engine) Explain(sql string) (*PlanInfo, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := e.newPlan(q)
	if err != nil {
		return nil, err
	}
	return p.info(), nil
}

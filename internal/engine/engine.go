// Package engine executes Table III-style queries over the page store,
// implementing Algorithm 2 (Pipe): a logical plan is compiled into
// per-worker pipeline jobs over pages/slices, decoders fuse with filters
// and aggregations, and time-range merge nodes combine multi-series
// results.
//
// The same engine runs in several execution modes so the evaluation can
// compare approaches on identical storage:
//
//	ModeETSQP       vectorized pipelines, operator fusion, page-aware
//	                scheduling (slices only when pages are scarce)
//	ModeETSQPPrune  ETSQP plus the Section V pruning rules
//	ModeSerial      value-at-a-time decoding, no vectorization
//	ModeSBoost      vectorized delta decoding but fixed layout, slices
//	                every page across all workers (per-slice prefix
//	                dependency), no fusion and no pruning
//	ModeFastLanes   FLMM1024 storage with its own block decoder, no
//	                fusion and no pruning
package engine

import (
	"math"
	"runtime"
	"time"

	"etsqp/internal/exec"
	"etsqp/internal/obs"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// Mode selects the execution strategy.
type Mode int

// Execution modes.
const (
	ModeETSQP Mode = iota
	ModeETSQPPrune
	ModeSerial
	ModeSBoost
	ModeFastLanes
)

// String names the mode as the evaluation figures label it.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(strategies) {
		return "Unknown"
	}
	return strategies[m].name
}

// Engine executes queries against a store.
type Engine struct {
	Store   *storage.Store
	Mode    Mode
	Workers int // worker pipelines (p_c); defaults to GOMAXPROCS
	// ForceSlices, when positive, splits every page into that many slices
	// regardless of page availability — the Figure 14(c,d) ablation knob
	// for studying slice-dependency idle time vs materialization cost.
	ForceSlices int
	// Pool is the shared execution pool slice/page morsels run on. Nil
	// selects the process-wide exec.Default() pool, so concurrent engines
	// share one set of workers unless a test or server wires its own.
	Pool *exec.Pool
	// Cache, when non-nil, is the decoded-page cache consulted before
	// every page-column decode. Register its InvalidateSeries with
	// Store.OnMutate so ingest keeps it consistent.
	Cache *exec.PageCache
}

// New returns an engine with default worker count.
func New(store *storage.Store, mode Mode) *Engine {
	return &Engine{Store: store, Mode: mode, Workers: runtime.GOMAXPROCS(0)}
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// pool returns the execution pool morsel batches run on.
func (e *Engine) pool() *exec.Pool {
	if e.Pool != nil {
		return e.Pool
	}
	return exec.Default()
}

// WindowAgg is one sliding-window result row.
type WindowAgg struct {
	Index int
	Start int64
	End   int64
	Value float64
	Count int64
}

// Result carries query output plus execution statistics.
type Result struct {
	// Aggregates maps "SUM(A)"-style labels to values for plain
	// aggregation queries.
	Aggregates map[string]float64
	// Windows holds per-window aggregates for SW queries (one aggregate
	// item supported per window query).
	Windows []WindowAgg
	// Time and Values hold the output tuples of star/join/merge/projection
	// queries as columns: tuple i is Time[i] with Values[c][i] in output
	// column c, every column as long as Time.
	Time   []int64
	Values [][]int64
	// Stats reports the work done, for the throughput metrics.
	Stats Stats
}

// rangeHull intersects [lo, hi] with the range-shaped predicates on the
// TIME column (onTime) or on value columns (!onTime). != predicates
// leave the bounds open. A strict bound at an int64 edge admits nothing,
// so the hull is then empty (lo > hi) whatever else the conjunction says.
func rangeHull(preds []sqlparse.Pred, onTime bool, lo, hi int64) (int64, int64) {
	for _, p := range preds {
		if p.Col.IsTime() != onTime {
			continue
		}
		switch p.Op {
		case opGT:
			if p.Value == math.MaxInt64 {
				return math.MaxInt64, math.MinInt64
			}
			lo = max(lo, p.Value+1)
		case opGE:
			lo = max(lo, p.Value)
		case opLT:
			if p.Value == math.MinInt64 {
				return math.MaxInt64, math.MinInt64
			}
			hi = min(hi, p.Value-1)
		case opLE:
			hi = min(hi, p.Value)
		case opEQ:
			lo, hi = max(lo, p.Value), min(hi, p.Value)
		}
	}
	return lo, hi
}

// valuePreds returns the non-TIME predicates.
func valuePreds(preds []sqlparse.Pred) []sqlparse.Pred {
	var out []sqlparse.Pred
	for _, p := range preds {
		if !p.Col.IsTime() {
			out = append(out, p)
		}
	}
	return out
}

// rowsOut counts the result's output cardinality: tuples for row-shaped
// queries, window rows for SW queries, aggregate cells otherwise.
func (r *Result) rowsOut() int64 {
	return int64(len(r.Time) + len(r.Windows) + len(r.Aggregates))
}

// Execute runs a parsed query.
func (e *Engine) Execute(q *sqlparse.Query) (*Result, error) {
	return e.ExecuteTraced(q, nil)
}

// ExecuteTraced runs a parsed query with span collection feeding tr.
// The trace must be fresh (NewTrace); on success its span tree is
// assembled from the observed stage times. A nil trace is exactly
// Execute.
func (e *Engine) ExecuteTraced(q *sqlparse.Query, tr *Trace) (*Result, error) {
	start := time.Now()
	p, err := e.newPlan(q)
	if err != nil {
		tr.fail(err, time.Since(start))
		return nil, err
	}
	return e.run(p, tr, start)
}

// run executes a plan and does the per-query bookkeeping: global
// counters, the latency histogram, and the trace's span tree over the
// wall time since start.
func (e *Engine) run(p *plan, tr *Trace, start time.Time) (*Result, error) {
	res, err := e.execute(p, tr)
	if err != nil {
		tr.fail(err, time.Since(start))
		return nil, err
	}
	obs.EngineQueries.Inc()
	obs.EngineRowsOut.Add(res.rowsOut())
	if obs.Enabled() || tr != nil {
		elapsed := time.Since(start)
		if obs.Enabled() {
			obs.EngineTimeQuery.AddNanos(int64(elapsed))
			obs.EngineHistQuery.Observe(int64(elapsed))
		}
		if tr != nil {
			tr.finish(res.Stats, elapsed)
		}
	}
	return res, nil
}

// execute hands the plan to the executor of its shape: aggregates and
// windows run planned jobs, every row-producing shape runs ranges.
func (e *Engine) execute(p *plan, tr *Trace) (*Result, error) {
	switch p.shape {
	case shapeAggregate, shapeWindow:
		return e.executeAgg(p, tr)
	}
	return e.executeRanged(p, tr)
}

// ExecuteSQL parses and runs a statement.
func (e *Engine) ExecuteSQL(sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Execute(q)
}

// TraceSQL parses, plans and runs a statement with tracing on, returning
// the result together with the assembled span tree. The parse and plan
// phases are timed into their own spans, and the plan that was timed is
// the one that runs. When execution itself fails (e.g. a Section VI-C
// aggregate overflow) the trace is still returned with the failure
// recorded, so serving layers can log what the query did before it
// errored; parse and plan failures return a nil trace — nothing
// executed.
func (e *Engine) TraceSQL(sql string) (*Result, *Trace, error) {
	_, res, tr, err := e.traceSQL(sql)
	return res, tr, err
}

// traceSQL is TraceSQL that also hands back the plan, for EXPLAIN
// ANALYZE to render next to what it did. The plan span excludes the
// page selection, which the prune span reports.
func (e *Engine) traceSQL(sql string) (*plan, *Result, *Trace, error) {
	tr := NewTrace(sql, e.Mode.String(), e.workers())
	parseStart := time.Now()
	q, err := sqlparse.Parse(sql)
	tr.parseNs = int64(time.Since(parseStart))
	if err != nil {
		return nil, nil, nil, err
	}
	planStart := time.Now()
	p, err := e.newPlan(q)
	if err != nil {
		return nil, nil, nil, err
	}
	tr.planNs = int64(time.Since(planStart)) - p.pruneNs
	res, err := e.run(p, tr, time.Now())
	return p, res, tr, err
}

package engine

import (
	"fmt"
	"strings"
	"time"
)

// AnalyzeInfo pairs a plan with the counters its run observed — the
// EXPLAIN ANALYZE result. Plan renders the physical plan that was
// executed; Result.Stats holds what the pipelines did with it, so the
// two can be compared line by line.
type AnalyzeInfo struct {
	Plan    *PlanInfo
	Result  *Result
	Elapsed time.Duration
	// Trace holds the per-query span tree. ExplainAnalyze always collects
	// it (the query is being inspected anyway); rendered under the
	// counters block and available for JSON dumping via Trace.WriteJSON.
	Trace *Trace
}

// String renders the plan tree with an "analyze:" block of observed
// counters and per-stage wall time appended under it.
func (a *AnalyzeInfo) String() string {
	var b strings.Builder
	b.WriteString(a.Plan.String())
	st := a.Result.Stats
	write := func(format string, args ...any) {
		b.WriteString("  ")
		b.WriteString(fmt.Sprintf(format, args...))
		b.WriteByte('\n')
	}
	write("analyze:")
	write("  pages: relevant=%d read=%d pruned=%d",
		st.PagesTotal, st.PagesRead, st.PagesPruned)
	write("  slices: %d  tuples loaded: %d  rows pruned: %d  rows out: %d",
		st.SlicesRun, st.TuplesLoaded, st.RowsPruned, a.Result.rowsOut())
	write("  values: fused=%d decoded=%d", st.ValuesFused, st.ValuesDecoded)
	if st.MergeRanges > 0 {
		write("  merge ranges: %d", st.MergeRanges)
	}
	if st.WindowSegments > 0 {
		write("  window segments: %d", st.WindowSegments)
	}
	if st.CursorBatches > 0 {
		write("  cursor batches: %d", st.CursorBatches)
	}
	if st.CacheHits+st.CacheMisses > 0 {
		write("  page cache: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
	write("  bytes scanned: %d", st.BytesScanned)
	write("  elapsed: %v", a.Elapsed)
	write("  stages: prune=%v io=%v decode=%v filter=%v agg=%v window=%v merge=%v",
		time.Duration(st.PruneNanos),
		time.Duration(st.IONanos), time.Duration(st.DecodeNanos),
		time.Duration(st.FilterNanos), time.Duration(st.AggNanos),
		time.Duration(st.WindowNanos), time.Duration(st.MergeNanos))
	if st.MorselsRun > 0 {
		write("  resources: cpu=%v morsels=%d arena=%dB",
			time.Duration(st.CPUNanos), st.MorselsRun, st.ArenaHighWater)
	}
	if a.Trace != nil {
		b.WriteString(a.Trace.String())
	}
	return b.String()
}

// ExplainAnalyze plans a statement, runs that plan, and returns it
// annotated with the observed execution statistics and wall time.
func (e *Engine) ExplainAnalyze(sql string) (*AnalyzeInfo, error) {
	p, res, tr, err := e.traceSQL(sql)
	if err != nil {
		return nil, err
	}
	return &AnalyzeInfo{Plan: p.info(), Result: res, Elapsed: time.Duration(tr.ElapsedNs), Trace: tr}, nil
}

package engine

import (
	"sync/atomic"

	"etsqp/internal/exec"
	"etsqp/internal/expr"
	"etsqp/internal/obs"
)

// Aliases keep predicate handling terse.
const (
	opLT = expr.OpLT
	opLE = expr.OpLE
	opGT = expr.OpGT
	opGE = expr.OpGE
	opEQ = expr.OpEQ
	opNE = expr.OpNE
)

// Stats counts the work a query performed. The throughput metric of the
// evaluation is TuplesLoaded per second, where TuplesLoaded counts the
// tuples of loaded pages *including* pruned pages and slices (Section
// VII-B). EXPLAIN ANALYZE renders these observed numbers next to the
// plan that ran; docs/OBSERVABILITY.md documents the exact
// semantics of each field.
type Stats struct {
	PagesTotal   int64 // pages relevant to the query
	PagesPruned  int64 // pages skipped by header statistics
	SlicesRun    int64 // pipeline jobs executed
	TuplesLoaded int64 // tuples covered by loaded (or pruned) pages
	RowsPruned   int64 // rows skipped by in-page stop rules

	PagesRead     int64 // page payload loads: one read per page per query, cut pages included
	BytesScanned  int64 // encoded payload bytes moved into worker buffers
	ValuesFused   int64 // values aggregated on encoded form (Section IV)
	ValuesDecoded int64 // values materialized for filtering/aggregation
	MergeRanges   int64 // time-range merge nodes executed (Figure 9)
	CacheHits     int64 // page-column decodes served by the decoded-page cache
	CacheMisses   int64 // cache lookups that fell through to the decode path

	// Windowed-aggregation sharing (Section VI G_sw): segments are the
	// disjoint row ranges the window boundaries cut slices into; each is
	// aggregated once and shared by every window covering it.
	WindowSegments int64
	CursorBatches  int64 // columnar batches yielded by storage cursors

	// Stage timings for the Figure 14(b) breakdown (nanoseconds).
	IONanos     int64
	DecodeNanos int64
	FilterNanos int64
	AggNanos    int64
	WindowNanos int64 // per-window partial fills and segment merges
	MergeNanos  int64
	PruneNanos  int64 // page selection + header-statistics pruning

	// Shared-pool resource attribution (exec.QueryStats): worker CPU time
	// summed over the query's morsel executions (exceeds wall time on
	// parallel queries by design), morsels run on its behalf, and the
	// largest scratch-arena footprint any participant held.
	CPUNanos   int64
	MorselsRun int64
	// MorselsStolen is always 0: participants take morsels from one
	// shared claim counter, so no morsel belongs to a slot to be stolen.
	// It stays for readers that still report a stolen share.
	MorselsStolen  int64
	ArenaHighWater int64 // bytes
}

// statsCollector accumulates Stats from concurrent workers.
type statsCollector struct {
	pagesTotal   atomic.Int64 //etsqp:atomic
	pagesPruned  atomic.Int64 //etsqp:atomic
	slicesRun    atomic.Int64 //etsqp:atomic
	tuplesLoaded atomic.Int64 //etsqp:atomic
	rowsPruned   atomic.Int64 //etsqp:atomic

	pagesRead     atomic.Int64 //etsqp:atomic
	bytesScanned  atomic.Int64 //etsqp:atomic
	valuesFused   atomic.Int64 //etsqp:atomic
	valuesDecoded atomic.Int64 //etsqp:atomic
	mergeRanges   atomic.Int64 //etsqp:atomic
	cacheHits     atomic.Int64 //etsqp:atomic
	cacheMisses   atomic.Int64 //etsqp:atomic

	windowSegments atomic.Int64 //etsqp:atomic
	cursorBatches  atomic.Int64 //etsqp:atomic

	ioNanos     atomic.Int64 //etsqp:atomic
	decodeNanos atomic.Int64 //etsqp:atomic
	filterNanos atomic.Int64 //etsqp:atomic
	aggNanos    atomic.Int64 //etsqp:atomic
	windowNanos atomic.Int64 //etsqp:atomic
	mergeNanos  atomic.Int64 //etsqp:atomic
	pruneNanos  atomic.Int64 //etsqp:atomic

	// execStats is the query's shared-pool attribution sink, passed to
	// Pool.RunWith by every batch the query submits. Embedded by value so
	// per-query accounting adds no allocation beyond the collector that
	// already exists (TestQueryStatsZeroAllocSteadyState).
	execStats exec.QueryStats

	// trace, when non-nil, receives per-slice events. Hot paths only ever
	// perform a nil check on it, so tracing off adds no work and no
	// allocation.
	trace *Trace
}

// newCollector builds the collector of a run of p (trace nil = off),
// charged with the plan's page selection. Plan-time decisions count once
// the plan runs: EXPLAIN builds the same plan and must not move them.
func newCollector(p *plan, tr *Trace) *statsCollector {
	c := &statsCollector{trace: tr}
	c.pagesTotal.Add(int64(p.pagesTotal))
	c.pagesPruned.Add(int64(p.pagesPruned))
	c.tuplesLoaded.Add(p.prunedTuples)
	c.pruneNanos.Add(p.pruneNs)
	if obs.Enabled() {
		obs.PrunePagesValue.Add(int64(p.pagesPruned))
		obs.PrunePagesVacuous.Add(int64(p.pagesVacuous))
	}
	return c
}

func (c *statsCollector) snapshot() Stats {
	return Stats{
		PagesTotal:   c.pagesTotal.Load(),
		PagesPruned:  c.pagesPruned.Load(),
		SlicesRun:    c.slicesRun.Load(),
		TuplesLoaded: c.tuplesLoaded.Load(),
		RowsPruned:   c.rowsPruned.Load(),

		PagesRead:     c.pagesRead.Load(),
		BytesScanned:  c.bytesScanned.Load(),
		ValuesFused:   c.valuesFused.Load(),
		ValuesDecoded: c.valuesDecoded.Load(),
		MergeRanges:   c.mergeRanges.Load(),
		CacheHits:     c.cacheHits.Load(),
		CacheMisses:   c.cacheMisses.Load(),

		WindowSegments: c.windowSegments.Load(),
		CursorBatches:  c.cursorBatches.Load(),

		IONanos:     c.ioNanos.Load(),
		DecodeNanos: c.decodeNanos.Load(),
		FilterNanos: c.filterNanos.Load(),
		AggNanos:    c.aggNanos.Load(),
		WindowNanos: c.windowNanos.Load(),
		MergeNanos:  c.mergeNanos.Load(),
		PruneNanos:  c.pruneNanos.Load(),

		CPUNanos:       c.execStats.CPUNanos(),
		MorselsRun:     c.execStats.Morsels(),
		ArenaHighWater: c.execStats.ArenaHighWater(),
	}
}

// finish snapshots the collector and publishes the per-query totals to
// the global obs counters in one batch — the hot path only ever touches
// the collector's atomics; the obs layer is charged once per query.
func (c *statsCollector) finish() Stats {
	st := c.snapshot()
	if obs.Enabled() {
		obs.EngineTuplesLoaded.Add(st.TuplesLoaded)
		obs.EngineSlicesRun.Add(st.SlicesRun)
		obs.EngineValuesFused.Add(st.ValuesFused)
		obs.EngineValuesDecoded.Add(st.ValuesDecoded)
		obs.EngineMergeRanges.Add(st.MergeRanges)
		obs.EngineWindowSegments.Add(st.WindowSegments)
		obs.EngineCursorBatches.Add(st.CursorBatches)
		obs.PruneRowsSkipped.Add(st.RowsPruned)
		obs.StoragePagesRead.Add(st.PagesRead)
		obs.StorageBytesScanned.Add(st.BytesScanned)
		obs.EngineTimeIO.AddNanos(st.IONanos)
		obs.EngineTimeDecode.AddNanos(st.DecodeNanos)
		obs.EngineTimeFilter.AddNanos(st.FilterNanos)
		obs.EngineTimeAgg.AddNanos(st.AggNanos)
		obs.EngineTimeWindow.AddNanos(st.WindowNanos)
		obs.EngineTimeMerge.AddNanos(st.MergeNanos)
		obs.EngineTimePrune.AddNanos(st.PruneNanos)
		// The stage histograms observe one value per query — the query's
		// summed stage time — so they hold cross-query distributions.
		obs.EngineHistIO.Observe(st.IONanos)
		obs.EngineHistDecode.Observe(st.DecodeNanos)
		obs.EngineHistFilter.Observe(st.FilterNanos)
		obs.EngineHistAgg.Observe(st.AggNanos)
		obs.EngineHistWindow.Observe(st.WindowNanos)
		obs.EngineHistMerge.Observe(st.MergeNanos)
	}
	return st
}

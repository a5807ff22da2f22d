package obs

// The complete metric registry. Names are dotted <package>.<metric>;
// semantics, units and overhead notes for every entry are documented in
// docs/OBSERVABILITY.md. All metrics are declared here (rather than in
// the packages that increment them) so the surface is reviewable in one
// place and the import graph stays acyclic: obs depends only on the
// standard library.

// Engine: query-level totals, published once per query from the
// per-query stats collector (engine.Stats remains the per-query view).
var (
	EngineQueries = newCounter("engine.queries",
		"queries executed successfully")
	EngineRowsOut = newCounter("engine.rows_out",
		"result rows, window rows and aggregate cells returned")
	EngineTuplesLoaded = newCounter("engine.tuples_loaded",
		"tuples covered by loaded or pruned pages (Section VII-B throughput unit)")
	EngineSlicesRun = newCounter("engine.slices_run",
		"pipeline jobs (pages or slices) executed by workers")
	EngineValuesFused = newCounter("engine.values_fused",
		"values aggregated on encoded form, never materialized (Section IV)")
	EngineValuesDecoded = newCounter("engine.values_decoded",
		"values materialized for filtering or aggregation")
	EngineMergeRanges = newCounter("engine.merge_ranges",
		"time-range merge nodes executed for row-producing queries (Figure 9)")
	EngineWindowSegments = newCounter("engine.window_segments",
		"disjoint row segments cut by window boundaries, each aggregated once and shared by overlapping windows")
	EngineCursorBatches = newCounter("engine.cursor_batches",
		"columnar batches yielded by storage batch cursors for row-producing queries")
)

// Engine stage timers: per-stage wall time summed across workers, so a
// parallel query can accumulate more stage time than wall time.
var (
	EngineTimeIO = newTimer("engine.time.io_ns",
		"wall time reading page payloads: checksum verification, once per page read")
	EngineTimeDecode = newTimer("engine.time.decode_ns",
		"wall time in decoding pipelines")
	EngineTimeFilter = newTimer("engine.time.filter_ns",
		"wall time applying value predicates to materialized rows")
	EngineTimeAgg = newTimer("engine.time.agg_ns",
		"wall time folding values into aggregate states")
	EngineTimeWindow = newTimer("engine.time.window_ns",
		"wall time filling per-window partials and merging shared segments")
	EngineTimeMerge = newTimer("engine.time.merge_ns",
		"wall time merging and joining per-range results")
	EngineTimeQuery = newTimer("engine.time.query_ns",
		"end-to-end wall time of executed queries")
	EngineTimePrune = newTimer("engine.time.prune_ns",
		"wall time selecting and pruning pages by header statistics")
)

// Pipeline: decode work (Section III).
var (
	PipelineValuesUnpacked = newCounter("pipeline.values_unpacked",
		"values produced by the decode pipelines (DecodeRange/RangeScanner)")
	PipelineSlices = newCounter("pipeline.slices",
		"slices created by the page-to-slice scheduler (Figure 8)")
	PipelinePrefixFixups = newCounter("pipeline.prefix_fixups",
		"cross-slice prefix dependencies resolved (SumPacked or order-2 replay)")
)

// Prune: Section V stop rules and page-statistics decisions.
var (
	PrunePagesValue = newCounter("prune.pages_skipped_value",
		"whole pages skipped by the header min/max value rule")
	PruneStopsValue = newCounter("prune.stops_value",
		"in-page scans stopped early by the Proposition 5 value rule")
	PruneStopsTime = newCounter("prune.stops_time",
		"timestamp decodes stopped early by the Proposition 4 time rule")
	PruneRowsSkipped = newCounter("prune.rows_skipped",
		"rows never decoded thanks to in-page stop rules")
	PrunePagesVacuous = newCounter("prune.pages_filter_vacuous",
		"pages whose header stats prove every row passes the value filter (fused path stays on)")
)

// Storage: page payload traffic.
var (
	StoragePagesRead = newCounter("storage.pages_read",
		"page payload loads, at most one per page per job or cursor batch (a page cut into k slices is read k times)")
	StorageBytesScanned = newCounter("storage.bytes_scanned",
		"encoded payload bytes moved into working buffers")
	StoragePagesEncoded = newCounter("storage.pages_encoded",
		"pages encoded by ingestion (Append, transport senders, compaction)")
)

// Distributions: power-of-two-bucket histograms (histogram.go). The
// engine.hist.* stage histograms receive one observation per query (the
// query's summed stage nanoseconds), so they answer "how do stage costs
// distribute across queries" — the Sections III/VII questions the sum
// timers above cannot. The page/slice histograms observe once per decode
// call / pipeline job.
var (
	EngineHistQuery = newHistogram("engine.hist.query_ns",
		"distribution of end-to-end query wall time")
	EngineHistIO = newHistogram("engine.hist.io_ns",
		"per-query distribution of summed IO stage time")
	EngineHistDecode = newHistogram("engine.hist.decode_ns",
		"per-query distribution of summed decode stage time")
	EngineHistFilter = newHistogram("engine.hist.filter_ns",
		"per-query distribution of summed filter stage time")
	EngineHistAgg = newHistogram("engine.hist.agg_ns",
		"per-query distribution of summed aggregation stage time")
	EngineHistWindow = newHistogram("engine.hist.window_ns",
		"per-query distribution of summed windowed-aggregation stage time")
	EngineHistMerge = newHistogram("engine.hist.merge_ns",
		"per-query distribution of summed merge stage time")
	EngineHistPageDecode = newHistogram("engine.hist.page_decode_ns",
		"per-call distribution of page decode wall time, after the page read (Section VII per-page decode cost)")
	EngineHistSliceRows = newHistogram("engine.hist.slice_rows",
		"distribution of rows per executed pipeline job (Figure 8 slice sizing)")
	TransportHistFrameBytes = newHistogram("transport.hist.frame_bytes",
		"wire-size distribution of frames written and parsed")
)

// Exec: the shared execution layer (internal/exec) — morsel batches on
// the process-wide worker pool and the decoded-page cache fronting
// storage.
var (
	ExecBatches = newCounter("exec.batches",
		"morsel batches submitted to the shared worker pool")
	ExecMorsels = newCounter("exec.morsels",
		"morsels (pages or slices) executed by batch participants")
	// ExecSteals is always 0: pool participants share one claim counter
	// per batch, so there is nothing to steal. It stays registered for
	// the readers that still report a stolen share.
	ExecSteals = newCounter("exec.steals",
		"always 0: morsels are claimed from one shared counter per batch, none are stolen")
	ExecCacheHits = newCounter("exec.cache.hits",
		"decoded-page cache lookups served without re-decoding")
	ExecCacheMisses = newCounter("exec.cache.misses",
		"decoded-page cache lookups that fell through to the decode path")
	ExecCacheInserts = newCounter("exec.cache.inserts",
		"decoded page columns admitted to the cache")
	ExecCacheInsertBytes = newCounter("exec.cache.insert_bytes",
		"decoded bytes admitted to the cache")
	ExecCacheEvictions = newCounter("exec.cache.evictions",
		"cache entries evicted by the clock sweep to meet the byte budget")
	ExecCacheEvictedBytes = newCounter("exec.cache.evicted_bytes",
		"decoded bytes reclaimed by clock eviction")
	ExecCacheInvalidated = newCounter("exec.cache.invalidated",
		"cache entries dropped because their series was mutated by ingest")
	ExecHistMorsel = newHistogram("exec.hist.morsel_ns",
		"distribution of single-morsel execution wall time")
	ExecHistQueueDepth = newHistogram("exec.hist.queue_depth",
		"active-batch count observed at each multi-participant submission")
)

// Serve: the HTTP observability and query surface.
var (
	ServeSlowDropped = newCounter("serve.slow_dropped",
		"slow-query traces evicted from the bounded in-memory ring (-slow-max)")
)

// Transport: the Section I encoded-delivery path.
var (
	TransportFramesOut = newCounter("transport.frames_out",
		"frames written by senders")
	TransportFramesIn = newCounter("transport.frames_in",
		"frames parsed successfully by receivers")
	TransportBytesOut = newCounter("transport.bytes_out",
		"wire bytes written (headers, payloads and CRC trailers)")
	TransportBytesIn = newCounter("transport.bytes_in",
		"wire bytes read from successfully parsed frames")
	TransportCRCFailures = newCounter("transport.crc_failures",
		"frames rejected for a CRC-32 payload mismatch")
)

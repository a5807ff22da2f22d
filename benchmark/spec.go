package main

// Frozen constants of the benchmark. They were calibrated once on the
// commit that introduced the benchmark (2 cores) and are never derived
// at run time: a change to any of them is a change to the benchmark
// and re-baselines every number. BENCHMARK.json carries only the keys
// the driver's contract allows, so the constants live here and are
// listed in README.md.
const (
	pageSize   = 4096     // points per page, as the store defaults
	cacheBytes = 16 << 20 // decoded-page cache budget

	scanRows    = 1_600_000 // wave, wave_b
	fusedRows   = 2_000_000 // plateau, walk
	probeRows   = 4_000_000 // trend
	liveRows    = 1_000_000 // live, before ingest
	windowRows  = 1000      // points per tumbling window (fused_agg)
	probeSpan   = 2000      // rows per time-range probe (0.05 % of trend)
	rangeProbes = 16        // time-range probes per selective_probe op
	valueProbes = 16        // rare-value filters per selective_probe op

	liveSpan      = 200_000 // rows the window and scan requests cover
	liveWindows   = 10      // windows per window request
	ingestRate    = 20_000  // points/s streamed into live
	ingestFlush   = 1024    // points per shipped page
	ingestLagRows = 40_000  // requests end this far behind the scheduled ingest frontier (2 s)
	openLoopRate  = 350.0   // requests/s in the open-loop phase
	mixProbe      = 60      // request mix, per cent
	mixWindow     = 25      // the remaining 15 % are scans

	defaultSeed    = 42
	defaultSeconds = 15 // timed phase per run; BENCHMARK.json run_seconds
	warmupSeconds  = 2.0
	setupRepeats   = 8   // set-ups per untraced run, half before and half after the timed phases; setup_s is the fastest
	probeRepeats   = 9   // timed repetitions per module probe; the median is reported
	memSampleMs    = 100 // heap sampling period in the timed phase
	maxSpans       = 400_000
	metricsScrapeS = 1.0 // one /metrics GET per second on serve_mixed, as Prometheus would
)

// latencyLimitMs is the frozen per-workload latency limit behind
// within_limit_share: an op (in process) or a request (serve_mixed,
// from its due time) counts only if it was answered correctly within
// the limit. The share is a per-layer, informational metric: a tail
// measure cannot repeat on a host whose bursts of interference push
// p95 from 10 ms to 86 ms (serve_mixed read 1.00 in one run and 0.74
// in the next), so gating on it would reject unchanged code.
var latencyLimitMs = map[string]float64{
	"decode_scan":     130,
	"fused_agg":       150,
	"selective_probe": 15,
	"serve_mixed":     25,
}

// maxRateFactors scale openLoopRate into the three frozen rates the
// traced serve_mixed run steps through for serve.max_rate_ok.
var maxRateFactors = []float64{1, 1.7, 2.4}

type workloadSpec struct {
	name string
	why  string
}

var workloads = []workloadSpec{
	{"decode_scan", "value-filtered scans over wave pages of packing width 4-20 that all straddle the constant: no pruning, no fusion, no cache, so unpack+delta+filter kernels dominate"},
	{"fused_agg", "unfiltered SUM/AVG and tumbling windows over RLBE plateaus and a ts2diff walk, answered on encoded form: moves with closed forms and segment merging, not with decode kernels"},
	{"selective_probe", "short time ranges and rare-value filters over a 4M-row trend whose hot set fits the cache: parse, planning, page lookup, pruning and dispatch dominate, kernels predict no change"},
	{"serve_mixed", "probe/window/scan requests over real HTTP while a transport sender ingests 20k points/s into the queried series: the user-facing surface with writes beside reads and cache invalidation"},
}

type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen
	moves  string  // per-layer only: the end-to-end metric and workload it should move
}

var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "values_per_s", unit: "values/s", better: "higher", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "bytes_per_value", unit: "B", better: "lower", bound: 0.005},
	{name: "mem_peak_mb", unit: "MiB", better: "lower", bound: 0.15},
}

const (
	movesDecode = "values_per_s, p50_ms @decode_scan"
	movesFused  = "values_per_s @fused_agg"
	movesProbe  = "queries_per_s, p50_ms @selective_probe"
	movesServe  = "queries_per_s, p50_ms, within_limit_share @serve_mixed"
	movesSetup  = "setup_s @all"
	movesNone   = "health of the measurement"
)

var perLayer = []metricSpec{
	{name: "simd.shuffle_epi8_ns", unit: "ns", better: "lower", moves: "pipeline.decode_ns_per_value.* -> " + movesDecode},
	{name: "simd.prefix_sum32_ns", unit: "ns", better: "lower", moves: "pipeline.decode_ns_per_value.* -> " + movesDecode},
	{name: "simd.srlv32_ns", unit: "ns", better: "lower", moves: "pipeline.decode_ns_per_value.* -> " + movesDecode},
	{name: "simd.gather_bytes_ns", unit: "ns", better: "lower", moves: "pipeline.decode_ns_per_value.* -> " + movesDecode},

	{name: "pipeline.decode_ns_per_value.w04", unit: "ns", better: "lower", moves: movesDecode},
	{name: "pipeline.decode_ns_per_value.w08", unit: "ns", better: "lower", moves: movesDecode},
	{name: "pipeline.decode_ns_per_value.w12", unit: "ns", better: "lower", moves: movesDecode},
	{name: "pipeline.decode_ns_per_value.w16", unit: "ns", better: "lower", moves: movesDecode},
	{name: "pipeline.decode_ns_per_value.w20", unit: "ns", better: "lower", moves: movesDecode},
	{name: "pipeline.scalar_ref_ns_per_value.w04", unit: "ns", better: "lower", moves: "reference only"},
	{name: "pipeline.scalar_ref_ns_per_value.w08", unit: "ns", better: "lower", moves: "reference only"},
	{name: "pipeline.scalar_ref_ns_per_value.w12", unit: "ns", better: "lower", moves: "reference only"},
	{name: "pipeline.scalar_ref_ns_per_value.w16", unit: "ns", better: "lower", moves: "reference only"},
	{name: "pipeline.scalar_ref_ns_per_value.w20", unit: "ns", better: "lower", moves: "reference only"},
	{name: "pipeline.vector_over_scalar.w04", unit: "ratio", better: "higher", moves: movesDecode + " (ROADMAP target >= 3)"},
	{name: "pipeline.vector_over_scalar.w08", unit: "ratio", better: "higher", moves: movesDecode + " (ROADMAP target >= 3)"},
	{name: "pipeline.vector_over_scalar.w12", unit: "ratio", better: "higher", moves: movesDecode + " (ROADMAP target >= 3)"},
	{name: "pipeline.vector_over_scalar.w16", unit: "ratio", better: "higher", moves: movesDecode + " (ROADMAP target >= 3)"},
	{name: "pipeline.vector_over_scalar.w20", unit: "ratio", better: "higher", moves: movesDecode},
	{name: "pipeline.scan_ns_per_value", unit: "ns", better: "lower", moves: movesDecode + " (the RangeScanner path filtered scans take)"},
	{name: "pipeline.decode_range_ns_per_value", unit: "ns", better: "lower", moves: movesProbe + "; p50_ms @serve_mixed"},
	{name: "pipeline.sum_packed_ns_per_value", unit: "ns", better: "lower", moves: movesFused},
	{name: "pipeline.fib_unpack_ns_per_value", unit: "ns", better: "lower", moves: movesFused + " (RLBE pages)"},
	{name: "pipeline.flatten_ns_per_value.r1", unit: "ns", better: "lower", moves: "RLBE decode fallback"},
	{name: "pipeline.flatten_ns_per_value.r64", unit: "ns", better: "lower", moves: "RLBE decode fallback"},
	{name: "pipeline.plan_cold_ns", unit: "ns", better: "lower", moves: "first query after start"},

	{name: "fusion.sum_block_ns_per_value", unit: "ns", better: "lower", moves: movesFused},
	{name: "fusion.sum_block_segments_ns_per_value", unit: "ns", better: "lower", moves: movesFused + "; window requests @serve_mixed"},
	{name: "fusion.sum_runs_ns_per_pair", unit: "ns", better: "lower", moves: movesFused},
	{name: "fusion.variance_ns_per_pair", unit: "ns", better: "lower", moves: "not on a workload yet: the engine decodes for VAR"},
	{name: "fusion.sum_range_segments_ns_per_pair", unit: "ns", better: "lower", moves: movesFused},
	{name: "fusion.fused_share", unit: "ratio", better: "higher", moves: "1 on fused_agg, 0 on decode_scan"},

	{name: "prune.skip_page_ns", unit: "ns", better: "lower", moves: movesProbe},
	{name: "prune.stop_value_ns", unit: "ns", better: "lower", moves: movesProbe},
	{name: "prune.pages_pruned_share", unit: "ratio", better: "higher", moves: movesProbe + "; 0 on decode_scan"},
	{name: "prune.rows_pruned_share", unit: "ratio", better: "higher", moves: movesProbe + "; 0 on decode_scan"},

	{name: "storage.encode_ns_per_value", unit: "ns", better: "lower", moves: movesSetup + "; ingest cost -> queries_per_s @serve_mixed"},
	{name: "storage.page_decode_ns_per_value", unit: "ns", better: "lower", moves: "serial baseline of engine.speedup_vs_serial"},
	{name: "storage.verify_checksum_ns_per_kb", unit: "ns", better: "lower", moves: "every page load: " + movesDecode},
	{name: "storage.pages_in_range_ns", unit: "ns", better: "lower", moves: movesProbe},
	{name: "storage.marshal_pair_ns", unit: "ns", better: "lower", moves: movesServe + " (ingest)"},
	{name: "storage.unmarshal_pair_ns", unit: "ns", better: "lower", moves: movesServe + " (ingest)"},
	{name: "storage.bytes_per_value.ts2diff", unit: "B", better: "lower", moves: "bytes_per_value @all"},
	{name: "storage.bytes_per_value.rlbe", unit: "B", better: "lower", moves: "bytes_per_value @fused_agg"},
	{name: "storage.bytes_per_value.sprintz", unit: "B", better: "lower", moves: "not on a workload"},

	{name: "exec.pool_dispatch_ns", unit: "ns", better: "lower", moves: movesProbe},
	{name: "exec.pool_ns_per_morsel", unit: "ns", better: "lower", moves: movesDecode + "; " + movesFused},
	{name: "exec.cache_get_hit_ns", unit: "ns", better: "lower", moves: movesProbe},
	{name: "exec.cache_put_ns", unit: "ns", better: "lower", moves: movesDecode},
	{name: "exec.cache_invalidate_ns", unit: "ns", better: "lower", moves: movesServe},
	{name: "exec.cache_hit_ratio", unit: "ratio", better: "higher", moves: "~0 on decode_scan, ~1 on selective_probe filters, ingest-limited on serve_mixed -> p50_ms, within_limit_share"},
	{name: "exec.cache_invalidations", unit: "count", better: "lower", moves: "read beside exec.cache_hit_ratio @serve_mixed"},
	{name: "exec.morsels_stolen_share", unit: "ratio", better: "lower", moves: "skew: p50_ms @decode_scan"},
	{name: "exec.worker_cpu_share", unit: "ratio", better: "higher", moves: "parallel efficiency: values_per_s @decode_scan, @fused_agg"},
	{name: "exec.arena_high_water_kb", unit: "KiB", better: "lower", moves: "mem_peak_mb @all"},

	{name: "expr.range_mask_ns_per_value", unit: "ns", better: "lower", moves: movesDecode},
	{name: "expr.masked_sum_ns_per_value", unit: "ns", better: "lower", moves: movesDecode},
	{name: "expr.merge_by_time_ns_per_row", unit: "ns", better: "lower", moves: "not on a workload (Q5)"},
	{name: "expr.natural_join_ns_per_row", unit: "ns", better: "lower", moves: "not on a workload (Q4, Q6)"},

	{name: "sqlparse.parse_ns", unit: "ns", better: "lower", moves: movesProbe + "; p50_ms @serve_mixed"},

	{name: "engine.execute_ns", unit: "ns", better: "lower", moves: "p50_ms @in-process workloads"},
	{name: "engine.explain_ns", unit: "ns", better: "lower", moves: movesServe + " (TraceSQL plans every request)"},
	{name: "engine.io_share", unit: "ratio", better: "lower", moves: "stage share of worker CPU"},
	{name: "engine.decode_share", unit: "ratio", better: "lower", moves: movesDecode},
	{name: "engine.filter_share", unit: "ratio", better: "lower", moves: movesDecode},
	{name: "engine.agg_share", unit: "ratio", better: "lower", moves: movesFused},
	{name: "engine.window_share", unit: "ratio", better: "lower", moves: movesFused},
	{name: "engine.merge_share", unit: "ratio", better: "lower", moves: "not on a workload (Q4-Q6)"},
	{name: "engine.prune_share", unit: "ratio", better: "lower", moves: movesProbe},
	{name: "engine.speedup_vs_serial", unit: "ratio", better: "higher", moves: "the ROADMAP's same-run ratio, every workload"},
	{name: "engine.alloc_bytes_per_query", unit: "B", better: "lower", moves: "mem_peak_mb, bench.go_gc_cpu_share"},
	{name: "engine.allocs_per_query", unit: "count", better: "lower", moves: movesProbe},
	{name: "engine.p95_ms", unit: "ms", better: "lower", moves: "informational tail of p50_ms (in process)"},
	{name: "engine.p99_ms", unit: "ms", better: "lower", moves: "informational tail of p50_ms (in process)"},

	{name: "serve.handler_ns", unit: "ns", better: "lower", moves: movesServe},
	{name: "serve.http_overhead_us", unit: "us", better: "lower", moves: movesServe},
	{name: "serve.metrics_scrape_ms", unit: "ms", better: "lower", moves: "within_limit_share @serve_mixed"},
	{name: "serve.probe_p50_ms", unit: "ms", better: "lower", moves: "p50_ms @serve_mixed, per class"},
	{name: "serve.window_p50_ms", unit: "ms", better: "lower", moves: "p50_ms @serve_mixed, per class"},
	{name: "serve.scan_p50_ms", unit: "ms", better: "lower", moves: "p50_ms @serve_mixed, per class"},
	{name: "serve.p95_ms", unit: "ms", better: "lower", moves: "within_limit_share @serve_mixed"},
	{name: "serve.p99_ms", unit: "ms", better: "lower", moves: "within_limit_share @serve_mixed"},
	{name: "serve.generator_late_p99_ms", unit: "ms", better: "lower", moves: movesNone},
	{name: "serve.max_rate_ok", unit: "1/s", better: "higher", moves: "capacity behind within_limit_share @serve_mixed"},

	{name: "transport.send_ns_per_point", unit: "ns", better: "lower", moves: movesServe},
	{name: "transport.receive_ns_per_point", unit: "ns", better: "lower", moves: movesServe},
	{name: "transport.wire_bytes_per_point", unit: "B", better: "lower", moves: "network side of bytes_per_value"},
	{name: "transport.frames_failed", unit: "count", better: "lower", moves: "failed @serve_mixed"},

	{name: "within_limit_share", unit: "ratio", better: "higher", moves: "the tail beside p50_ms @all; demoted from end-to-end, see README"},

	{name: "bench.traced_overhead_share", unit: "ratio", better: "lower", moves: movesNone},
	{name: "bench.go_gc_cpu_share", unit: "ratio", better: "lower", moves: movesNone},
}

// Package etsqp reproduces "Exploring SIMD Vectorization in Aggregation
// Pipelines for Encoded IoT Data" (Kang, Song, Wang — ICDE 2025): an
// IoT time-series storage and query engine whose decoding pipelines are
// vectorized (Section III), fused with aggregation operators so that
// SUM/AVG/COUNT run on encoded form without materializing columns
// (Section IV, internal/fusion), and pruned early by encoder statistics
// (Section V, internal/prune). VAR and CORR decode their values: the
// Σv² closed form in internal/fusion serves the benchmarks only.
// A FastLanes-style transposed layout (internal/fastlanes) and
// serial/SBoost executors serve as the paper's baselines, and
// internal/transport implements the Section I delivery path: devices
// ship CRC-framed encoded pages that the server ingests without
// decoding.
//
// The query surface — aggregates, sliding/hopping windows, series
// concatenation and natural join, predicates, subqueries, LIMIT — is
// specified in docs/QUERYING.md, which the querydoc analyzer keeps in
// sync with the parser in both directions.
//
// Execution is observable end to end: every query reports engine.Stats,
// EXPLAIN renders the physical plan the executor runs (one value, built
// once per query — docs/EXECUTION.md), EXPLAIN ANALYZE adds the observed
// counters, and internal/obs exposes process-global metrics for every
// layer (see docs/OBSERVABILITY.md; wire and file formats are specified
// in docs/FORMATS.md).
//
// The invariants behind the performance claims — allocation-free unpack
// kernels, panic-free decode paths, gated observability, consistent plan
// tables, write-disjoint parallel fan-outs, declared mutex/atomic
// protocols on every shared struct (//etsqp:guardedby, //etsqp:atomic,
// lock-order acyclicity), and value-range proofs on the aggregation
// kernels (//etsqp:rangecheck interval analysis with //etsqp:bounds
// contracts, so Section VI-C overflow surfaces as an error rather than
// a wrapped sum) — are enforced by the cmd/etsqp-lint analyzer
// suite, whose compiler-contract analyzers also check the compiler's
// own diagnostics against per-kernel bounds-check-elimination, escape
// and inlining contracts (docs/STATIC_ANALYSIS.md).
//
// The library lives under internal/ (see DESIGN.md for the module map);
// runnable entry points are cmd/etsqp-bench (regenerates every table and
// figure of the paper's evaluation), cmd/etsqp-cli (a SQL shell), and the
// examples/ programs.
package etsqp

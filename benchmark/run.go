package main

import (
	"fmt"
	"runtime"
	"time"

	"etsqp/internal/engine"
	"etsqp/internal/obs"
)

// config is one run's settings. The driver sets seed and seconds; the
// smoke test shrinks everything else.
type config struct {
	seed    int64
	seconds float64 // timed phase
	warmup  float64 // untimed lead-in, seconds
	div     int     // divides every row count (1 = the frozen sizes)
	setups  int     // set-ups per untraced run
	probes  int     // timed repetitions per module probe
	outDir  string  // where trace files go
}

func (c config) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not: the JSON object
// the driver reads, plus free-text notes for people.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	notes     []string
}

func newResult(specs []metricSpec) *result {
	r := &result{Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		r.Metrics[m.name] = metricValue{Unit: m.unit}
	}
	return r
}

// set records a metric the spec declares; an undeclared name is a bug
// in the benchmark and fails the run loudly.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	m.Value = v
	r.Metrics[name] = m
}

// count adds a phase's ops or requests to the run's totals; every
// phase is counted, warm-up included, since all of them are checked.
func (r *result) count(p *phase) {
	r.Attempted += p.attempted()
	r.Failed += p.failed
	if p.firstErr != "" {
		r.notef("query error: %s", p.firstErr)
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var inprocData = map[string]func(seed int64, div int) *dataset{
	"decode_scan":     decodeScanData,
	"fused_agg":       fusedAggData,
	"selective_probe": selectiveProbeData,
}

// runWorkload runs one workload once: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func runWorkload(name string, cfg config, traced bool) (*result, error) {
	if name == "serve_mixed" {
		return runServeMixed(cfg, traced)
	}
	if _, ok := inprocData[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return runInproc(name, cfg, traced)
}

// setups times a workload's set-up: generation, encoding and start-up
// of one system per build. An untraced run builds cfg.setups systems,
// half before the measured phases (the last of these is the system the
// run uses) and half after them, and reports the fastest build as
// setup_s. Fastest, and spread over the run, for the reason the speed
// metrics are read in the quietest second (measure.go): all builds of
// one burst of interference are slow together - the median of nine
// back-to-back builds differed by 25 % between two sets of ten runs.
type setups[T interface{ close() }] struct {
	build func() (T, error)
	secs  []float64
}

// run builds n systems (at least one), closing all but the last.
func (st *setups[T]) run(n int) (T, error) {
	var sys T
	for i := 0; i < n || i == 0; i++ {
		if i > 0 {
			sys.close()
		}
		start := time.Now()
		var err error
		if sys, err = st.build(); err != nil {
			return sys, err
		}
		st.secs = append(st.secs, time.Since(start).Seconds())
	}
	return sys, nil
}

// before is how many of cfg.setups builds precede the measured phases;
// a traced run builds once.
func (c config) setupsBefore(traced bool) int {
	if traced {
		return 1
	}
	return (c.setups + 1) / 2
}

// finish runs the builds that follow the measured phases and returns
// setup_s.
func (st *setups[T]) finish(cfg config) (float64, error) {
	if n := cfg.setups - len(st.secs); n > 0 {
		sys, err := st.run(n)
		if err != nil {
			return 0, err
		}
		sys.close()
	}
	return quantile(st.secs, 0), nil
}

type inprocSystem struct {
	*system
	data *dataset
}

func runInproc(name string, cfg config, traced bool) (*result, error) {
	st := &setups[*inprocSystem]{build: func() (*inprocSystem, error) {
		d := inprocData[name](cfg.seed, cfg.div)
		s, err := newSystem(d.cols)
		return &inprocSystem{s, d}, err
	}}
	sys, err := st.run(cfg.setupsBefore(traced))
	if err != nil {
		return nil, err
	}
	defer sys.close()
	ops := buildOps(sys.data)
	var names []string
	for _, c := range sys.data.cols {
		names = append(names, c.name)
	}
	bytesPerValue := sys.bytesPerValue(names...)
	// The raw columns were only needed for the oracle; drop them so the
	// memory metric sees the system, not the benchmark's copy of its input.
	sys.data = nil
	runtime.GC()

	limit := latencyLimitMs[name]
	warm := runOps(sys.engine, ops, time.Duration(cfg.warmup*float64(time.Second)), 1, limit, nil)
	if !traced {
		r := newResult(endToEnd)
		r.count(&warm)
		mem := startMemSampler()
		p := runOps(sys.engine, ops, cfg.dur(1), 1, limit, nil)
		r.set("mem_peak_mb", mem.Stop())
		r.count(&p)
		setupS, err := st.finish(cfg)
		if err != nil {
			return nil, err
		}
		r.set("setup_s", setupS)
		r.set("values_per_s", quietest(p.doneMs, p.valueRates, ms(p.wall), false))
		r.set("queries_per_s", quietest(p.doneMs, p.queryRates, ms(p.wall), false))
		r.set("p50_ms", quietest(p.doneMs, p.lat, ms(p.wall), true))
		r.set("bytes_per_value", bytesPerValue)
		r.notef("%d ops, %d queries; over the whole phase p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, within limit %.4f (informational)",
			p.attempted(), p.queries, median(p.lat), quantile(p.lat, 0.95), quantile(p.lat, 0.99), ratio(float64(p.within), float64(p.attempted())))
		r.Correct = r.Failed == 0
		return r, nil
	}

	r := newResult(perLayer)
	r.count(&warm)
	tr := newTracer(name)
	rt := startRuntimeDelta()
	p := runOps(sys.engine, ops, cfg.dur(0.5), 1, limit, tr)
	rt.finish(r, p.queries)
	r.count(&p)
	serial := runOps(sys.serial, ops, 0, 3, limit, nil)
	r.count(&serial)
	r.explainPass(sys.engine, ops[0], tr)
	total := p.total()
	r.layerStats(&total, p.wall)
	r.spanMetrics(tr)
	// The untraced baseline is the second half of the warm-up: its first
	// ops also pay for cold caches and plan tables.
	untraced := median(warm.lat[len(warm.lat)/2:])
	r.set("engine.speedup_vs_serial", ratio(median(serial.lat), untraced))
	r.set("within_limit_share", ratio(float64(p.within), float64(p.attempted())))
	r.set("engine.p95_ms", quantile(p.lat, 0.95))
	r.set("engine.p99_ms", quantile(p.lat, 0.99))
	r.set("bench.traced_overhead_share", ratio(median(p.lat), untraced)-1)
	for class, s := range p.stats {
		r.notef("class %-10s fused_share %.3f  pages_pruned_share %.3f  rows_pruned_share %.4f  cache_hit_ratio %.3f (%d lookups)",
			class, ratio(float64(s.ValuesFused), float64(s.ValuesFused+s.ValuesDecoded)),
			ratio(float64(s.PagesPruned), float64(s.PagesTotal)), ratio(float64(s.RowsPruned), float64(s.TuplesLoaded)),
			ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)), s.CacheHits+s.CacheMisses)
	}
	if err := r.finishTraced(tr, cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// finishTraced runs the probes, writes the trace file and settles
// correctness - the tail every traced run shares.
func (r *result) finishTraced(tr *tracer, cfg config) error {
	probes, err := runProbes(cfg.seed, cfg.probes)
	for name, v := range probes {
		r.set(name, v)
	}
	if werr := tr.write(cfg.outDir); werr != nil {
		return werr
	}
	if n := tr.dropped.Load(); n > 0 {
		r.notef("trace buffer full: %d spans dropped", n)
	}
	if err != nil {
		r.notef("probe failed: %v", err)
	}
	r.Correct = r.Failed == 0 && err == nil
	return nil
}

// runtimeDelta brackets the traced phase with runtime readings.
type runtimeDelta struct {
	before      map[string]float64
	invalidated int64
}

var runtimeNames = []string{rmAllocBytes, rmAllocObjs, rmGCCPU, rmTotalCPU}

func startRuntimeDelta() *runtimeDelta {
	return &runtimeDelta{before: readRuntime(runtimeNames...), invalidated: obs.ExecCacheInvalidated.Load()}
}

func (d *runtimeDelta) finish(r *result, queries int) {
	after := readRuntime(runtimeNames...)
	delta := func(n string) float64 { return after[n] - d.before[n] }
	r.set("engine.alloc_bytes_per_query", ratio(delta(rmAllocBytes), float64(queries)))
	r.set("engine.allocs_per_query", ratio(delta(rmAllocObjs), float64(queries)))
	r.set("bench.go_gc_cpu_share", ratio(delta(rmGCCPU), delta(rmTotalCPU)))
	r.set("exec.cache_invalidations", float64(obs.ExecCacheInvalidated.Load()-d.invalidated))
}

// layerStats turns summed engine.Stats into the counter-based layer
// metrics. Stage shares are of worker CPU (per-morsel wall time summed
// over participants), so they compare across worker counts.
func (r *result) layerStats(s *engine.Stats, wall time.Duration) {
	r.set("fusion.fused_share", ratio(float64(s.ValuesFused), float64(s.ValuesFused+s.ValuesDecoded)))
	r.set("prune.pages_pruned_share", ratio(float64(s.PagesPruned), float64(s.PagesTotal)))
	r.set("prune.rows_pruned_share", ratio(float64(s.RowsPruned), float64(s.TuplesLoaded)))
	r.set("exec.cache_hit_ratio", ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)))
	r.set("exec.morsels_stolen_share", ratio(float64(s.MorselsStolen), float64(s.MorselsRun)))
	r.set("exec.worker_cpu_share", ratio(float64(s.CPUNanos), float64(wall)*float64(runtime.GOMAXPROCS(0))))
	r.set("exec.arena_high_water_kb", float64(s.ArenaHighWater)/1024)
	cpu := float64(s.CPUNanos)
	r.set("engine.io_share", ratio(float64(s.IONanos), cpu))
	r.set("engine.decode_share", ratio(float64(s.DecodeNanos), cpu))
	r.set("engine.filter_share", ratio(float64(s.FilterNanos), cpu))
	r.set("engine.agg_share", ratio(float64(s.AggNanos), cpu))
	r.set("engine.window_share", ratio(float64(s.WindowNanos), cpu))
	r.set("engine.merge_share", ratio(float64(s.MergeNanos), cpu))
	r.set("engine.prune_share", ratio(float64(s.PruneNanos), cpu))
}

// explainPass plans every query of one op under an engine.Explain
// span: what TraceSQL adds to each /query request.
func (r *result) explainPass(eng *engine.Engine, op []builtQuery, tr *tracer) {
	for k := range op {
		id := tr.begin("engine.Explain", noSpan)
		if _, err := eng.Explain(op[k].sql); err != nil {
			r.Failed++
		}
		tr.end(id, 0)
	}
}

// spanMetrics reads the span-based layer metrics out of the trace;
// a span name the workload never records reads 0.
func (r *result) spanMetrics(tr *tracer) {
	m := tr.means()
	r.set("sqlparse.parse_ns", m["sqlparse.Parse"].dur)
	r.set("engine.execute_ns", m["engine.Execute"].dur)
	r.set("engine.explain_ns", m["engine.Explain"].dur)
	r.set("serve.handler_ns", m["serve.handler"].dur)
	r.set("serve.http_overhead_us", m["request"].self/1000)
}

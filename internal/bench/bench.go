// Package bench regenerates every table and figure of the paper's
// evaluation (Section VII) as data series. The cmd/etsqp-bench binary
// prints them (etsqp-bench -fig N, -table N); the Test*Shape tests check
// each figure's shape at a small size. The repository's perf record is
// the benchmark/ harness, not these series.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"etsqp/internal/dataset"
	"etsqp/internal/engine"
	"etsqp/internal/storage"

	// All codecs must be registered for the workloads.
	_ "etsqp/internal/encoding/chimp"
	_ "etsqp/internal/encoding/gorilla"
	_ "etsqp/internal/encoding/rlbe"
	_ "etsqp/internal/encoding/sprintz"
	_ "etsqp/internal/encoding/ts2diff"
	_ "etsqp/internal/fastlanes"
)

// Config scales the workloads.
type Config struct {
	Rows     int   // rows per series
	Seed     int64 // generator seed
	Workers  int   // engine worker pipelines
	PageSize int   // points per page
	Reps     int   // timed repetitions per point (best-of; default 3)
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 100_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	return c
}

// Measurement is one plotted point.
type Measurement struct {
	Figure     string  // e.g. "fig10"
	Series     string  // line label: approach or system
	X          string  // x position: dataset, query, thread count, ...
	Throughput float64 // Mtuples/s (tuples of loaded pages per second)
	Elapsed    time.Duration
	Extra      map[string]float64
}

// Approaches of the decoding comparison figures, in paper order.
var Approaches = []engine.Mode{
	engine.ModeETSQP, engine.ModeETSQPPrune, engine.ModeSerial,
	engine.ModeSBoost, engine.ModeFastLanes,
}

// DatasetLabels in Table II order.
var DatasetLabels = []string{"Atm", "Clim", "Gas", "Time", "Sine", "TPCH"}

// workload holds a generated dataset ingested under a codec.
type workload struct {
	store    *storage.Store
	ts       []int64 // series ts1 timestamps
	vals     []int64 // series ts1 values
	interval int64   // mean timestamp interval
	median   int64   // median value (selectivity 0.5 threshold)
}

// buildWorkload ingests two series of the dataset: ts1 with attribute 0
// on all timestamps, ts2 with attribute 1%attrs on every other timestamp
// (so joins have 0.5 selectivity and merges interleave).
func buildWorkload(cfg Config, label, valueCodec string) (*workload, error) {
	d, err := dataset.Generate(label, cfg.Rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	st := storage.NewStore()
	opts := storage.Options{PageSize: cfg.PageSize, ValueCodec: valueCodec}
	if err := st.Append("ts1", d.Time, d.Attrs[0], opts); err != nil {
		return nil, err
	}
	a2 := d.Attrs[len(d.Attrs)-1]
	t2 := make([]int64, 0, cfg.Rows/2)
	v2 := make([]int64, 0, cfg.Rows/2)
	for i := 0; i < cfg.Rows; i += 2 {
		t2 = append(t2, d.Time[i])
		v2 = append(v2, a2[i])
	}
	if err := st.Append("ts2", t2, v2, opts); err != nil {
		return nil, err
	}
	w := &workload{store: st, ts: d.Time, vals: d.Attrs[0]}
	if cfg.Rows > 1 {
		w.interval = (d.Time[cfg.Rows-1] - d.Time[0]) / int64(cfg.Rows-1)
	} else {
		w.interval = 1
	}
	sorted := append([]int64(nil), d.Attrs[0]...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	w.median = sorted[len(sorted)/2]
	return w, nil
}

// codecForMode picks the storage codec each approach queries.
func codecForMode(m engine.Mode) string {
	if m == engine.ModeFastLanes {
		return "fastlanes"
	}
	return storage.DefaultValueCodec
}

// engineFor builds the engine for a mode.
func engineFor(cfg Config, w *workload, m engine.Mode) *engine.Engine {
	e := engine.New(w.store, m)
	e.Workers = cfg.Workers
	return e
}

// queryFor renders benchmark query qid ("Q1".."Q6") against the workload.
// Defaults follow Section VII-A: filter selectivity 0.5 and 10^3 points
// per sliding-window instance.
func (w *workload) queryFor(qid string) (string, error) {
	n := len(w.ts)
	t0 := w.ts[0]
	tMid := w.ts[n/2] // time filters at selectivity 0.5
	winDT := w.interval * 1000
	switch qid {
	case "Q1":
		return fmt.Sprintf("SELECT SUM(A) FROM ts1 SW(%d, %d)", t0, winDT), nil
	case "Q2":
		return fmt.Sprintf("SELECT AVG(A) FROM ts1 SW(%d, %d)", t0, winDT), nil
	case "Q3":
		return fmt.Sprintf("SELECT SUM(A) FROM (SELECT * FROM ts1 WHERE A > %d)", w.median), nil
	case "Q4":
		return "SELECT ts1.A + ts2.A FROM ts1, ts2", nil
	case "Q5":
		return "SELECT * FROM ts1 UNION ts2 ORDER BY TIME", nil
	case "Q6":
		return "SELECT * FROM ts1, ts2", nil
	case "QT": // plain time-range aggregation at selectivity 0.5
		return fmt.Sprintf("SELECT SUM(A) FROM ts1 WHERE TIME >= %d AND TIME <= %d", t0, tMid), nil
	default:
		return "", fmt.Errorf("bench: unknown query %q", qid)
	}
}

// run measures the SQL best-of-Config.Reps. Raising -reps suppresses
// scheduler noise.
func run(cfg Config, e *engine.Engine, sql string) (Measurement, error) {
	return runReps(e, sql, cfg.Reps)
}

// runReps executes the SQL once for warm-up, then `reps` timed times,
// keeping the fastest run (standard best-of benchmarking to suppress
// scheduler and GC noise).
func runReps(e *engine.Engine, sql string, reps int) (Measurement, error) {
	if _, err := e.ExecuteSQL(sql); err != nil { // warm-up
		return Measurement{}, err
	}
	var best time.Duration
	var res *engine.Result
	for r := 0; r < reps; r++ {
		start := time.Now()
		rr, err := e.ExecuteSQL(sql)
		if err != nil {
			return Measurement{}, err
		}
		el := time.Since(start)
		if res == nil || el < best {
			best, res = el, rr
		}
	}
	elapsed := best
	tuples := res.Stats.TuplesLoaded
	m := Measurement{
		Elapsed:    elapsed,
		Throughput: float64(tuples) / elapsed.Seconds() / 1e6,
		Extra: map[string]float64{
			"pages":        float64(res.Stats.PagesTotal),
			"pages_pruned": float64(res.Stats.PagesPruned),
			"rows_pruned":  float64(res.Stats.RowsPruned),
			"slices":       float64(res.Stats.SlicesRun),
			"io_ms":        float64(res.Stats.IONanos) / 1e6,
			"decode_ms":    float64(res.Stats.DecodeNanos) / 1e6,
			"filter_ms":    float64(res.Stats.FilterNanos) / 1e6,
			"agg_ms":       float64(res.Stats.AggNanos) / 1e6,
			"window_ms":    float64(res.Stats.WindowNanos) / 1e6,
			"merge_ms":     float64(res.Stats.MergeNanos) / 1e6,
			// Exact work counters: rows aggregated on encoded form, and
			// rows decoded to values.
			"values_fused":   float64(res.Stats.ValuesFused),
			"values_decoded": float64(res.Stats.ValuesDecoded),
			"bytes_scanned":  float64(res.Stats.BytesScanned),
		},
	}
	return m, nil
}

// BenchQueries lists the Table III query ids.
var BenchQueries = []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"}

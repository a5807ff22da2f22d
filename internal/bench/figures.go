package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"etsqp/internal/baseline"
	"etsqp/internal/dataset"
	"etsqp/internal/encoding"
	"etsqp/internal/encoding/rlbe"
	"etsqp/internal/engine"
	"etsqp/internal/exec"
	"etsqp/internal/fusion"
	"etsqp/internal/obs"
	"etsqp/internal/storage"
)

// Fig10 measures the throughput of every approach on Q1-Q6 over every
// Table II dataset (TS2DIFF storage, FastLanes storage for its approach).
func Fig10(cfg Config) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, label := range DatasetLabels {
		loads := map[string]*workload{}
		for _, mode := range Approaches {
			codec := codecForMode(mode)
			w, ok := loads[codec]
			if !ok {
				var err error
				w, err = buildWorkload(cfg, label, codec)
				if err != nil {
					return nil, err
				}
				loads[codec] = w
			}
			for _, qid := range BenchQueries {
				sql, err := w.queryFor(qid)
				if err != nil {
					return nil, err
				}
				m, err := run(cfg, engineFor(cfg, w, mode), sql)
				if err != nil {
					return nil, fmt.Errorf("fig10 %s/%s/%s: %w", label, mode, qid, err)
				}
				m.Figure, m.Series, m.X = "fig10", mode.String(), label+"/"+qid
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// Fig11 measures Q1 throughput as the worker count grows (Time and Sine
// datasets), for the thread-scaling comparison.
func Fig11(cfg Config, threads []int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	if len(threads) == 0 {
		threads = []int{1, 2, 4, 8, 16}
	}
	var out []Measurement
	for _, label := range []string{"Time", "Sine"} {
		for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeSerial, engine.ModeSBoost, engine.ModeFastLanes} {
			w, err := buildWorkload(cfg, label, codecForMode(mode))
			if err != nil {
				return nil, err
			}
			sql, _ := w.queryFor("Q1")
			for _, th := range threads {
				c := cfg
				c.Workers = th
				m, err := run(c, engineFor(c, w, mode), sql)
				if err != nil {
					return nil, err
				}
				m.Figure, m.Series, m.X = "fig11", mode.String(), fmt.Sprintf("%s/threads=%d", label, th)
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// Fig12DeltaThreads is Figure 12(a,b): delta-only encoded data (the
// representation SBoost shares), time-range query at selectivity 0.5,
// throughput vs thread count.
func Fig12DeltaThreads(cfg Config, threads []int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	if len(threads) == 0 {
		threads = []int{1, 2, 4, 8, 16}
	}
	var out []Measurement
	for _, label := range []string{"Time", "Sine"} {
		for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeSBoost, engine.ModeFastLanes} {
			w, err := buildWorkload(cfg, label, codecForMode(mode))
			if err != nil {
				return nil, err
			}
			sql, _ := w.queryFor("QT")
			for _, th := range threads {
				c := cfg
				c.Workers = th
				m, err := run(c, engineFor(c, w, mode), sql)
				if err != nil {
					return nil, err
				}
				m.Figure, m.Series, m.X = "fig12ab", mode.String(), fmt.Sprintf("%s/threads=%d", label, th)
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// plateauColumns generates values holding constant for runLen steps —
// the controlled Delta-Repeat workload of Figure 12(c,d).
func plateauColumns(rows int, runLen int) (ts, vals []int64) {
	ts = make([]int64, rows)
	vals = make([]int64, rows)
	v := int64(1000)
	for i := 0; i < rows; i++ {
		ts[i] = int64(i) * 1000
		if runLen > 0 && i%runLen == 0 {
			v += int64(i%17) - 8
		}
		vals[i] = v
	}
	return ts, vals
}

// Fig12RunLength is Figure 12(c,d): Delta-Repeat data with controlled
// run lengths, comparing the fused ETSQP pipeline against SBoost-style
// full unpacking and FastLanes storage.
func Fig12RunLength(cfg Config, runLens []int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	if len(runLens) == 0 {
		runLens = []int{1, 4, 16, 64, 256}
	}
	var out []Measurement
	for _, rl := range runLens {
		ts, vals := plateauColumns(cfg.Rows, rl)
		for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeSBoost, engine.ModeFastLanes} {
			codec := "rlbe"
			if mode == engine.ModeFastLanes {
				codec = "fastlanes"
			}
			st := storage.NewStore()
			if err := st.Append("ts1", ts, vals, storage.Options{PageSize: cfg.PageSize, ValueCodec: codec}); err != nil {
				return nil, err
			}
			e := engine.New(st, mode)
			e.Workers = cfg.Workers
			sql := fmt.Sprintf("SELECT SUM(A) FROM ts1 WHERE TIME >= 0 AND TIME <= %d", ts[len(ts)/2])
			m, err := run(cfg, e, sql)
			if err != nil {
				return nil, err
			}
			m.Figure, m.Series, m.X = "fig12cd", mode.String(), fmt.Sprintf("runlen=%d", rl)
			out = append(out, m)
		}
	}
	return out, nil
}

// driftColumns generates a random walk whose noise magnitude needs
// exactly `width` bits while the downward drift is a fixed -8 per row.
// Narrow widths give tight Proposition 5 delta bounds (the walk provably
// cannot climb back once it falls), wide widths give loose bounds —
// exactly the pruning-parameter control of Figure 12(e,f).
func driftColumns(rows int, width uint) (ts, vals []int64) {
	ts = make([]int64, rows)
	vals = make([]int64, rows)
	half := int64(1) << (width - 1)
	cur := int64(1) << 40 // start high; the walk drifts down
	for i := 0; i < rows; i++ {
		ts[i] = int64(i) * 1000
		vals[i] = cur
		noise := int64(uint64(i)*2654435761%uint64(2*half)) - half
		cur += noise - 8
	}
	return ts, vals
}

// Fig12PackWidth is Figure 12(e,f): Delta-Repeat-Packing data across
// packing widths. The filter keeps the early (high) part of a drifting
// walk; after the values fall below the threshold, Proposition 5's
// bounds — tighter for smaller widths — let ETSQP-prune stop decoding
// the rest, so narrow widths prune more.
func Fig12PackWidth(cfg Config, widths []uint) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	if len(widths) == 0 {
		widths = []uint{6, 10, 14, 18, 22}
	}
	var out []Measurement
	for _, w := range widths {
		ts, vals := driftColumns(cfg.Rows, w)
		thresh := vals[len(vals)/4] // early quarter matches, then falls
		// Two large pages: header min/max can prune at most the tail
		// page, so the width-dependent Proposition 5 stops dominate.
		pageSize := cfg.Rows/2 + 1
		for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeETSQPPrune, engine.ModeSBoost, engine.ModeFastLanes} {
			st := storage.NewStore()
			if err := st.Append("ts1", ts, vals, storage.Options{PageSize: pageSize, ValueCodec: codecForMode(mode)}); err != nil {
				return nil, err
			}
			e := engine.New(st, mode)
			e.Workers = cfg.Workers
			sql := fmt.Sprintf("SELECT SUM(A) FROM (SELECT * FROM ts1 WHERE A > %d)", thresh)
			m, err := run(cfg, e, sql)
			if err != nil {
				return nil, err
			}
			m.Figure, m.Series, m.X = "fig12ef", mode.String(), fmt.Sprintf("width=%d", w)
			out = append(out, m)
		}
	}
	return out, nil
}

// Fig13 measures the deployment comparison: IoTDB, IoTDB-SIMD, MonetDB
// and Spark/HDFS answering the time-range and value-range queries over
// every dataset.
func Fig13(cfg Config) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	systems := []baseline.SystemKind{
		baseline.SystemIoTDB, baseline.SystemIoTDBSIMD,
		baseline.SystemMonetDB, baseline.SystemSparkHDFS,
	}
	var out []Measurement
	for _, label := range DatasetLabels {
		d, err := dataset.Generate(label, cfg.Rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		tMid := d.Time[len(d.Time)/2]
		for _, kind := range systems {
			sys, err := baseline.NewSystem(kind, d.Time, d.Attrs[0], cfg.PageSize)
			if err != nil {
				return nil, err
			}
			// (a) time-range query.
			start := time.Now()
			if _, err := sys.TimeRangeSum(d.Time[0], tMid); err != nil {
				return nil, err
			}
			el := time.Since(start)
			out = append(out, Measurement{
				Figure: "fig13", Series: kind.String(), X: label + "/time-range",
				Elapsed:    el,
				Throughput: float64(cfg.Rows) / el.Seconds() / 1e6,
				Extra:      map[string]float64{"encoded_bytes": float64(sys.EncodedBytes())},
			})
			// (b) value-range query.
			start = time.Now()
			if _, err := sys.ValueFilterSum(d.Attrs[0][0]); err != nil {
				return nil, err
			}
			el = time.Since(start)
			out = append(out, Measurement{
				Figure: "fig13", Series: kind.String(), X: label + "/value-range",
				Elapsed:    el,
				Throughput: float64(cfg.Rows) / el.Seconds() / 1e6,
				Extra:      map[string]float64{"encoded_bytes": float64(sys.EncodedBytes())},
			})
		}
	}
	return out, nil
}

// Fig14Fusion is Figure 14(a): SUM over Delta-Repeat-Packing data with
// one, two, or three decoders fused into the aggregation.
//
//	fuse=3  aggregate directly on Delta-Repeat pairs (Section IV)
//	fuse=2  flatten Repeat to the delta sequence, then fused delta sum
//	fuse=1  decode values completely, then sum
func Fig14Fusion(cfg Config) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	ts, vals := plateauColumns(cfg.Rows, 32)
	_ = ts
	blk, err := rlbe.Encode(vals)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		f    func() (int64, error)
	}{
		{"fuse=3 (pairs)", func() (int64, error) {
			pairs, err := blk.Pairs()
			if err != nil {
				return 0, err
			}
			return fusion.Sum(blk.First, pairs)
		}},
		{"fuse=2 (flatten+delta)", func() (int64, error) {
			pairs, err := blk.Pairs()
			if err != nil {
				return 0, err
			}
			// Flatten runs to a delta sequence, then a fused running sum
			// of prefix values (no per-value materialized output column).
			var total, cur int64
			total = blk.First
			cur = blk.First
			for _, p := range pairs {
				for k := 0; k < p.Count; k++ {
					cur += p.Delta
					total += cur
				}
			}
			return total, nil
		}},
		{"fuse=1 (decode+sum)", func() (int64, error) {
			decoded, err := blk.Decode()
			if err != nil {
				return 0, err
			}
			var total int64
			for _, v := range decoded {
				total += v
			}
			return total, nil
		}},
	}
	// Every variant is warmed up, and checked against the first, before
	// any is timed; the Config.Reps timed runs then go round-robin, each
	// round starting one variant later, so no variant is always first
	// after a pause. Each keeps its best run, as runReps measures the SQL
	// figures: one run of a sub-millisecond kernel is at the mercy of a
	// single preemption.
	best := make([]time.Duration, len(variants))
	var ref int64
	for i, v := range variants {
		got, err := v.f()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref = got
		} else if got != ref {
			return nil, fmt.Errorf("fig14a: variant %q disagrees: %d vs %d", v.name, got, ref)
		}
		best[i] = time.Duration(math.MaxInt64)
	}
	for r := 0; r < cfg.Reps; r++ {
		for k := range variants {
			i := (r + k) % len(variants)
			start := time.Now()
			if _, err := variants[i].f(); err != nil {
				return nil, err
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	out := make([]Measurement, len(variants))
	for i, v := range variants {
		out[i] = Measurement{
			Figure: "fig14a", Series: v.name, X: "sum",
			Elapsed:    best[i],
			Throughput: float64(cfg.Rows) / best[i].Seconds() / 1e6,
		}
	}
	return out, nil
}

// Fig14Stages is Figure 14(b): per-stage time shares of Q1 on every
// dataset under the full system.
func Fig14Stages(cfg Config) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	var out []Measurement
	for _, label := range DatasetLabels {
		w, err := buildWorkload(cfg, label, storage.DefaultValueCodec)
		if err != nil {
			return nil, err
		}
		// Q1 exercises the fused path (decode stage collapses into the
		// aggregate stage); Q3 exercises the full decode pipeline.
		for _, qid := range []string{"Q1", "Q3"} {
			sql, _ := w.queryFor(qid)
			m, err := run(cfg, engineFor(cfg, w, engine.ModeETSQP), sql)
			if err != nil {
				return nil, err
			}
			m.Figure, m.Series, m.X = "fig14b", "ETSQP", label+"/"+qid
			out = append(out, m)
		}
	}
	return out, nil
}

// Fig14Slices is Figure 14(c,d): execution time and redundant prefix
// work as a single large page is cut into more slices (workers fixed).
// The prefix work is counted: the pipeline.prefix_fixups delta over one
// more execution with obs on, one per slice that resolves its Figure 8
// dependency.
func Fig14Slices(cfg Config, sliceCounts []int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	if len(sliceCounts) == 0 {
		sliceCounts = []int{1, 2, 4, 8, 16, 32}
	}
	// One large page so slicing is the only source of parallelism.
	ts, vals := plateauColumns(cfg.Rows, 1)
	st := storage.NewStore()
	if err := st.Append("ts1", ts, vals, storage.Options{PageSize: cfg.Rows}); err != nil {
		return nil, err
	}
	sql := fmt.Sprintf("SELECT SUM(A) FROM (SELECT * FROM ts1 WHERE A > %d)", vals[0]-1)
	var out []Measurement
	for _, s := range sliceCounts {
		e := engine.New(st, engine.ModeETSQP)
		e.Workers = cfg.Workers
		e.ForceSlices = s
		m, err := run(cfg, e, sql)
		if err != nil {
			return nil, err
		}
		if m.Extra["prefix_fixups"], err = prefixFixups(e, sql); err != nil {
			return nil, err
		}
		m.Figure, m.Series, m.X = "fig14cd", "ETSQP", fmt.Sprintf("slices=%d", s)
		out = append(out, m)
	}
	return out, nil
}

// prefixFixups executes sql once with obs on and returns the
// pipeline.prefix_fixups it added.
func prefixFixups(e *engine.Engine, sql string) (float64, error) {
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	before := obs.PipelinePrefixFixups.Load()
	_, err := e.ExecuteSQL(sql)
	return float64(obs.PipelinePrefixFixups.Load() - before), err
}

// FigConcurrent measures the shared execution layer end to end: N
// parallel clients issue a value-filter aggregation (the decode path, so
// the decoded-page cache applies) over a skewed page-width dataset, all
// sharing one worker pool — once uncached ("pool") and once with a
// decoded-page cache ("pool+cache"). Throughput is aggregate: tuples
// loaded across every client divided by the wall time of the round.
func FigConcurrent(cfg Config, clients []int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	if len(clients) == 0 {
		clients = []int{2, 4, 8}
	}
	d, err := dataset.Generate("Sine", cfg.Rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Skewed page widths: ingest in chunks under cycling page sizes, so
	// morsels differ widely in cost — the static-split worst case that
	// the pool's shared claim counter absorbs: a free participant takes
	// the next morsel, so no slow page holds back a pre-dealt share.
	widths := []int{cfg.PageSize / 16, cfg.PageSize, cfg.PageSize / 4}
	for i, w := range widths {
		if w < 1 {
			widths[i] = 1
		}
	}
	st := storage.NewStore()
	chunk := cfg.PageSize
	for off, c := 0, 0; off < cfg.Rows; off, c = off+chunk, c+1 {
		end := off + chunk
		if end > cfg.Rows {
			end = cfg.Rows
		}
		opts := storage.Options{PageSize: widths[c%len(widths)]}
		if err := st.Append("ts1", d.Time[off:end], d.Attrs[0][off:end], opts); err != nil {
			return nil, err
		}
	}
	sorted := append([]int64(nil), d.Attrs[0]...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sql := fmt.Sprintf("SELECT SUM(A) FROM (SELECT * FROM ts1 WHERE A > %d)", sorted[len(sorted)/2])

	pool := exec.NewPool(cfg.Workers)
	defer pool.Close()
	var out []Measurement
	for _, cached := range []bool{false, true} {
		series := "pool"
		var cache *exec.PageCache
		if cached {
			series = "pool+cache"
			// Budget comfortably above the decoded dataset (two int64
			// columns) so steady state is all hits.
			cache = exec.NewPageCache(int64(cfg.Rows) * 64)
		}
		for _, nc := range clients {
			engines := make([]*engine.Engine, nc)
			for i := range engines {
				e := engine.New(st, engine.ModeETSQP)
				e.Workers = cfg.Workers
				e.Pool = pool
				e.Cache = cache
				engines[i] = e
			}
			// Warm-up round: fills the cache and yields the per-query
			// tuple count for the throughput denominator.
			warm, err := engines[0].ExecuteSQL(sql)
			if err != nil {
				return nil, fmt.Errorf("figconc %s: %w", series, err)
			}
			tuples := warm.Stats.TuplesLoaded
			round := func() (time.Duration, error) {
				errs := make([]error, nc)
				var wg sync.WaitGroup
				start := time.Now()
				for i := 0; i < nc; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						_, errs[i] = engines[i].ExecuteSQL(sql)
					}(i)
				}
				wg.Wait()
				wall := time.Since(start)
				for _, e := range errs {
					if e != nil {
						return 0, e
					}
				}
				return wall, nil
			}
			var best time.Duration
			for r := 0; r < cfg.Reps; r++ {
				wall, err := round()
				if err != nil {
					return nil, fmt.Errorf("figconc %s clients=%d: %w", series, nc, err)
				}
				if best == 0 || wall < best {
					best = wall
				}
			}
			out = append(out, Measurement{
				Figure: "figconc", Series: series, X: fmt.Sprintf("clients=%d", nc),
				Elapsed:    best,
				Throughput: float64(int64(nc)*tuples) / best.Seconds() / 1e6,
				Extra: map[string]float64{
					"tuples_per_query": float64(tuples),
				},
			})
		}
	}
	return out, nil
}

// FigWindow measures sliding-window aggregation as the window overlap
// factor (width/slide) grows: hopping windows with slide < width make
// every row a member of `overlap` window instances. Both engines share
// disjoint row segments across instances (docs/EXECUTION.md), so cost
// grows with the segment count rather than multiplicatively with
// overlap; ETSQP additionally fills the segment sums on encoded form
// via the Proposition 3 closed forms, while the serial engine decodes
// and folds every row.
func FigWindow(cfg Config, overlaps []int) ([]Measurement, error) {
	cfg = cfg.WithDefaults()
	if len(overlaps) == 0 {
		overlaps = []int{1, 2, 4, 8}
	}
	w, err := buildWorkload(cfg, "Atm", storage.DefaultValueCodec)
	if err != nil {
		return nil, err
	}
	width := w.interval * 1000 // 10^3 points per instance (Section VII-A)
	var out []Measurement
	for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeSerial} {
		e := engineFor(cfg, w, mode)
		for _, ov := range overlaps {
			slide := width / int64(ov)
			if slide < 1 {
				slide = 1
			}
			sql := fmt.Sprintf("SELECT SUM(A) FROM ts1 GROUP BY TIME(%d, %d)", width, slide)
			m, err := run(cfg, e, sql)
			if err != nil {
				return nil, fmt.Errorf("figwindow %s overlap=%d: %w", mode, ov, err)
			}
			m.Figure, m.Series, m.X = "figwindow", mode.String(), fmt.Sprintf("overlap=%d", ov)
			out = append(out, m)
		}
	}
	return out, nil
}

// Table1Row is one Table I row with a measured compression ratio.
type Table1Row struct {
	Method    string
	Semantics []encoding.Semantics
	Ratio     float64 // on the Sine dataset
}

// Table1 reproduces the encoder taxonomy with measured ratios.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.WithDefaults()
	d, err := dataset.Generate("Sine", cfg.Rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	col := d.Attrs[0]
	var out []Table1Row
	for _, name := range []string{"rlbe", "ts2diff", "sprintz", "chimp", "gorilla", "fastlanes"} {
		c, err := encoding.Lookup(name)
		if err != nil {
			return nil, err
		}
		blk, err := c.Encode(col)
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Row{
			Method:    name,
			Semantics: c.Semantics(),
			Ratio:     float64(len(col)*8) / float64(len(blk)),
		})
	}
	return out, nil
}

// Table2Row is one Table II row plus generated-size statistics.
type Table2Row struct {
	Spec         dataset.Spec
	GenRows      int
	EncodedBytes int
}

// Table2 reproduces the dataset statistics table over generated data.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.WithDefaults()
	var out []Table2Row
	for _, spec := range dataset.Specs {
		d, err := dataset.Generate(spec.Label, cfg.Rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		pairs, err := storage.EncodePages(d.Time, d.Attrs[0], storage.Options{PageSize: cfg.PageSize})
		if err != nil {
			return nil, err
		}
		bytes := 0
		for _, pp := range pairs {
			bytes += len(pp.Time.Data) + len(pp.Value.Data)
		}
		out = append(out, Table2Row{Spec: spec, GenRows: d.Rows(), EncodedBytes: bytes})
	}
	return out, nil
}

// Table3 verifies that every benchmark query parses and executes.
func Table3(cfg Config) (map[string]string, error) {
	cfg = cfg.WithDefaults()
	w, err := buildWorkload(cfg, "Atm", storage.DefaultValueCodec)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, qid := range BenchQueries {
		sql, err := w.queryFor(qid)
		if err != nil {
			return nil, err
		}
		if _, err := engineFor(cfg, w, engine.ModeETSQP).ExecuteSQL(sql); err != nil {
			return nil, fmt.Errorf("table3 %s: %w", qid, err)
		}
		out[qid] = sql
	}
	return out, nil
}

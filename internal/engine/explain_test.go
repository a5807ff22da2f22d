package engine

import (
	"sort"
	"strings"
	"testing"

	"etsqp/internal/obs"
	"etsqp/internal/storage"
)

// planStore builds a deterministic 3-page store: regular timestamps
// (start 1000, step 1) and three value pages with distinct statistics —
// page 0 all zeros, page 1 all fives, page 2 cycling 0..10.
func planStore(t *testing.T) *storage.Store {
	t.Helper()
	return planStoreCodec(t, "")
}

// planStoreCodec is planStore with its values stored in the named codec
// ("" for the default).
func planStoreCodec(t *testing.T, codec string) *storage.Store {
	t.Helper()
	const pageSize = 1024
	n := 3 * pageSize
	ts := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		ts[i] = 1000 + int64(i)
		switch i / pageSize {
		case 0:
			vals[i] = 0
		case 1:
			vals[i] = 5
		default:
			vals[i] = int64(i % 11)
		}
	}
	st := storage.NewStore()
	if err := st.Append("ts", ts, vals, storage.Options{PageSize: pageSize, ValueCodec: codec}); err != nil {
		t.Fatal(err)
	}
	return st
}

// twoSeriesStore builds two aligned series for merge/join plans.
func twoSeriesStore(t *testing.T) *storage.Store {
	t.Helper()
	const n = 2048
	ts := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		ts[i] = 1000 + int64(i)
		vals[i] = int64(i % 7)
	}
	st := storage.NewStore()
	for _, name := range []string{"ts1", "ts2"} {
		if err := st.Append(name, ts, vals, storage.Options{PageSize: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestPlanInfoGolden pins the EXPLAIN rendering for every plan shape.
func TestPlanInfoGolden(t *testing.T) {
	single := planStore(t)
	double := twoSeriesStore(t)
	cases := []struct {
		name  string
		store *storage.Store
		mode  Mode
		sql   string
		want  string
	}{
		{
			name: "aggregate", store: single, mode: ModeETSQP,
			sql: "SELECT SUM(A) FROM ts",
			want: "aggregate query [ETSQP]\n" +
				"  series: ts\n" +
				"  pages: 3  workers: 2  jobs: 3  sliced: false\n" +
				"  fused decoders: true  pruning: false\n",
		},
		{
			// Page 0 (zeros) is pruned, the filter is vacuous on page 1
			// (fives) so it fuses, page 2 (0..10) needs the pruned scan.
			name: "vacuous-filter", store: single, mode: ModeETSQPPrune,
			sql: "SELECT SUM(A) FROM ts WHERE A >= 3 AND A <= 7",
			want: "aggregate query [ETSQP-prune]\n" +
				"  series: ts\n" +
				"  pages: 3  workers: 2  jobs: 2  sliced: false\n" +
				"  fused decoders: true  pruning: true\n" +
				"  pages pruned: 1  fused jobs: 1 of 2\n",
		},
		{
			name: "window", store: single, mode: ModeETSQP,
			sql: "SELECT SUM(A) FROM ts SW(1000, 1024)",
			want: "window query [ETSQP]\n" +
				"  series: ts\n" +
				"  pages: 3  workers: 2  jobs: 3  sliced: false\n" +
				"  fused decoders: true  pruning: false\n" +
				"  window instances: 3\n",
		},
		{
			name: "scan", store: single, mode: ModeETSQPPrune,
			sql: "SELECT * FROM ts WHERE A >= 3",
			want: "scan query [ETSQP-prune]\n" +
				"  series: ts\n" +
				"  pages: 3  workers: 2  jobs: 2  sliced: false\n" +
				"  pages pruned: 1\n" +
				"  merge ranges: 2\n",
		},
		{
			name: "merge", store: double, mode: ModeETSQP,
			sql: "SELECT * FROM ts1 UNION ts2 ORDER BY TIME",
			want: "merge query [ETSQP]\n" +
				"  series: ts1, ts2\n" +
				"  pages: 4  workers: 2  jobs: 2  sliced: false\n" +
				"  merge ranges: 2\n",
		},
		{
			name: "join", store: double, mode: ModeETSQP,
			sql: "SELECT * FROM ts1, ts2",
			want: "join query [ETSQP]\n" +
				"  series: ts1, ts2\n" +
				"  pages: 4  workers: 2  jobs: 2  sliced: false\n" +
				"  merge ranges: 2\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.store, tc.mode)
			e.Workers = 2
			info, err := e.Explain(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := info.String(); got != tc.want {
				t.Errorf("plan mismatch\ngot:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestExplainAgreesWithExecution: EXPLAIN renders the plan the executor
// runs, so in every mode what it announces — jobs, pruned pages, fused
// jobs, windows, merge ranges — is what the run's statistics and trace
// then report. The vacuous-filter rows are the regression: EXPLAIN used
// to re-derive "fused" with its own condition and said false for range
// filters the page statistics prove vacuous, which execution fuses. The
// sprintz and gorilla rows are the other: no closed form reads those
// codecs, so EXPLAIN must not plan their jobs fused.
func TestExplainAgreesWithExecution(t *testing.T) {
	single := planStore(t)
	double := twoSeriesStore(t)
	sprintz, gorilla := planStoreCodec(t, "sprintz"), planStoreCodec(t, "gorilla")
	queries := []struct {
		name  string
		store *storage.Store
		sql   string
	}{
		{"no-filter", single, "SELECT SUM(A), COUNT(A) FROM ts"},
		{"vacuous-everywhere", single, "SELECT SUM(A), COUNT(A) FROM ts WHERE A >= 0 AND A <= 10"},
		{"straddling", single, "SELECT SUM(A), COUNT(A) FROM ts WHERE A >= 3 AND A <= 7"},
		{"not-equal", single, "SELECT SUM(A), COUNT(A) FROM ts WHERE A != 5"},
		{"window", single, "SELECT SUM(A) FROM ts SW(1000, 1024)"},
		{"union", double, "SELECT * FROM ts1 UNION ts2 ORDER BY TIME"},
		{"join", double, "SELECT * FROM ts1, ts2"},
		{"scan-filter", single, "SELECT * FROM ts WHERE A >= 3 AND A <= 7"},
		{"scan-limit", single, "SELECT * FROM ts WHERE A >= 3 LIMIT 5"},
		{"corr", double, "SELECT CORR(ts1.A, ts2.A) FROM ts1, ts2 WHERE ts1.A < 5"},
		{"sprintz-no-filter", sprintz, "SELECT SUM(A), COUNT(A) FROM ts"},
		{"sprintz-vacuous", sprintz, "SELECT SUM(A), COUNT(A) FROM ts WHERE A >= 0 AND A <= 10"},
		{"sprintz-window", sprintz, "SELECT LAST(A) FROM ts SW(1000, 1024)"},
		{"gorilla-no-filter", gorilla, "SELECT SUM(A), COUNT(A) FROM ts"},
		{"gorilla-straddling", gorilla, "SELECT SUM(A), COUNT(A) FROM ts WHERE A >= 3 AND A <= 7"},
		{"gorilla-window", gorilla, "SELECT SUM(A) FROM ts SW(1000, 1024)"},
	}
	for _, mode := range []Mode{ModeETSQP, ModeETSQPPrune, ModeSerial, ModeSBoost, ModeFastLanes} {
		for _, tc := range queries {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				e := New(tc.store, mode)
				e.Workers = 2
				info, err := e.Explain(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				res, tr, err := e.TraceSQL(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				fused := 0
				for _, ev := range tr.Slices {
					if ev.Fused {
						fused++
					}
				}
				if cursors := info.Shape != shapeAggregate && info.Shape != shapeWindow; cursors {
					// Row shapes run cursors, whose batches are not
					// pipeline jobs; Jobs counts the unpruned pages the
					// driving cursor may stream.
					driving := info.Pages - info.PagesPruned
					if len(info.Series) == 2 {
						driving = info.Pages / 2 // both series have as many pages
					}
					if st.SlicesRun != 0 || info.Jobs != driving {
						t.Errorf("cursor shape: SlicesRun = %d, Jobs = %d, Pages = %d", st.SlicesRun, info.Jobs, info.Pages)
					}
					// A LIMIT plan streams one range, so one cursor stops
					// early; otherwise every worker gets a range.
					want := min(info.Workers, info.Pages)
					if strings.Contains(tc.sql, "LIMIT") {
						want = 1
					}
					if info.MergeRanges != want {
						t.Errorf("cursor shape: %d merge ranges planned, want %d", info.MergeRanges, want)
					}
				} else if int64(info.Jobs) != st.SlicesRun {
					t.Errorf("planned %d jobs, ran %d", info.Jobs, st.SlicesRun)
				}
				if int64(info.Pages) != st.PagesTotal {
					t.Errorf("planned %d pages, ran over %d", info.Pages, st.PagesTotal)
				}
				if int64(info.PagesPruned) != st.PagesPruned {
					t.Errorf("planned %d pruned pages, run pruned %d", info.PagesPruned, st.PagesPruned)
				}
				if info.FusedJobs != fused || info.Fused != (st.ValuesFused > 0) {
					t.Errorf("planned Fused=%v FusedJobs=%d, trace shows %d fused slices (ValuesFused=%d)",
						info.Fused, info.FusedJobs, fused, st.ValuesFused)
				}
				if info.Windows != len(res.Windows) {
					t.Errorf("planned %d windows, result has %d", info.Windows, len(res.Windows))
				}
				if int64(info.MergeRanges) != st.MergeRanges {
					t.Errorf("planned %d merge ranges, ran %d", info.MergeRanges, st.MergeRanges)
				}
			})
		}
	}
}

// normalizeAnalyze blanks the timing-dependent lines of an EXPLAIN
// ANALYZE rendering so the rest can be compared as a golden string.
func normalizeAnalyze(s string) string {
	spanNames := map[string]bool{
		"query": true, "parse": true, "plan": true, "prune": true,
		"io": true, "decode": true, "filter": true, "agg": true,
		"window": true, "merge": true, "other": true,
	}
	lines := strings.Split(s, "\n")
	for i, ln := range lines {
		trimmed := strings.TrimSpace(ln)
		switch {
		case strings.HasPrefix(trimmed, "elapsed:"):
			lines[i] = "    elapsed: <t>"
		case strings.HasPrefix(trimmed, "stages:"):
			lines[i] = "    stages: <t>"
		case strings.HasPrefix(trimmed, "resources:"):
			lines[i] = "    resources: <r>"
		case strings.HasPrefix(trimmed, "bytes scanned:"):
			lines[i] = "    bytes scanned: <n>"
		case strings.HasPrefix(trimmed, "slice ["):
			if j := strings.LastIndex(ln, " dur="); j >= 0 {
				lines[i] = ln[:j] + " dur=<t>"
			}
			// Workers record slice events concurrently, so their order is
			// nondeterministic: sort each contiguous block of slice lines.
			if i+1 == len(lines) || !strings.HasPrefix(strings.TrimSpace(lines[i+1]), "slice [") {
				j := i
				for j > 0 && strings.HasPrefix(strings.TrimSpace(lines[j-1]), "slice [") {
					j--
				}
				sort.Strings(lines[j : i+1])
			}
		default:
			// Span lines render as exactly "name <duration>"; two fields, so
			// plan lines that happen to start with a stage name ("window
			// instances: 6", "merge ranges: 2") are left alone.
			if name, rest, ok := strings.Cut(trimmed, " "); ok && spanNames[name] &&
				!strings.ContainsRune(rest, ' ') {
				indent := ln[:len(ln)-len(strings.TrimLeft(ln, " "))]
				lines[i] = indent + name + " <t>"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestExplainAnalyzeGolden pins the analyze-annotated rendering for a
// fused aggregate (counters deterministic; times normalized).
func TestExplainAnalyzeGolden(t *testing.T) {
	e := New(planStore(t), ModeETSQP)
	e.Workers = 2
	info, err := e.ExplainAnalyze("SELECT SUM(A), COUNT(A) FROM ts")
	if err != nil {
		t.Fatal(err)
	}
	want := "aggregate query [ETSQP]\n" +
		"  series: ts\n" +
		"  pages: 3  workers: 2  jobs: 3  sliced: false\n" +
		"  fused decoders: true  pruning: false\n" +
		"  analyze:\n" +
		"    pages: relevant=3 read=3 pruned=0\n" +
		"    slices: 3  tuples loaded: 3072  rows pruned: 0  rows out: 2\n" +
		"    values: fused=3072 decoded=0\n" +
		"    bytes scanned: <n>\n" +
		"    elapsed: <t>\n" +
		"    stages: <t>\n" +
		"    resources: <r>\n" +
		"  trace:\n" +
		"    query <t>\n" +
		"      parse <t>\n" +
		"      plan <t>\n" +
		"      prune <t>\n" +
		"      io <t>\n" +
		"      decode <t>\n" +
		"      filter <t>\n" +
		"      agg <t>\n" +
		"      window <t>\n" +
		"      merge <t>\n" +
		"      other <t>\n" +
		"    slices: 3 run, 3 recorded\n" +
		"      slice [0, 1024) rows=1024 fused=true width=0 dur=<t>\n" +
		"      slice [0, 1024) rows=1024 fused=true width=0 dur=<t>\n" +
		"      slice [0, 1024) rows=1024 fused=true width=4 dur=<t>\n"
	if got := normalizeAnalyze(info.String()); got != want {
		t.Errorf("analyze mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzeMergeShape checks the merge-specific annotations.
func TestExplainAnalyzeMergeShape(t *testing.T) {
	e := New(twoSeriesStore(t), ModeETSQP)
	e.Workers = 2
	info, err := e.ExplainAnalyze("SELECT * FROM ts1 UNION ts2 ORDER BY TIME")
	if err != nil {
		t.Fatal(err)
	}
	out := info.String()
	if !strings.Contains(out, "merge ranges: 2") {
		t.Errorf("analyze output missing merge ranges:\n%s", out)
	}
	if info.Result.Stats.MergeRanges != 2 {
		t.Errorf("MergeRanges = %d, want 2", info.Result.Stats.MergeRanges)
	}
}

// TestAnalyzePrunedAndFusedAggregate is the acceptance scenario: one
// pruning-eligible aggregate where the observed counters show pages
// pruned by statistics AND values aggregated on the fused path (the
// vacuous-filter optimization), all consistent with the result.
func TestAnalyzePrunedAndFusedAggregate(t *testing.T) {
	st := planStore(t)
	const sql = "SELECT SUM(A), COUNT(A) FROM ts WHERE A >= 3 AND A <= 7"

	// Reference result from the serial engine.
	ref := New(planStore(t), ModeSerial)
	ref.Workers = 1
	refRes, err := ref.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}

	e := New(st, ModeETSQPPrune)
	e.Workers = 2
	info, err := e.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	stats := info.Result.Stats

	// Page 0 (all zeros, max < 3) is pruned from its header alone.
	if stats.PagesPruned != 1 {
		t.Errorf("PagesPruned = %d, want 1", stats.PagesPruned)
	}
	// Page 1 (all fives) proves the filter vacuous from min/max, so its
	// 1024 values aggregate fused, without materialization.
	if stats.ValuesFused != 1024 {
		t.Errorf("ValuesFused = %d, want 1024", stats.ValuesFused)
	}
	// Page 2 (mixed 0..10) must actually decode and filter.
	if stats.ValuesDecoded == 0 {
		t.Error("ValuesDecoded = 0, want > 0")
	}
	if stats.PagesTotal != 3 {
		t.Errorf("PagesTotal = %d, want 3", stats.PagesTotal)
	}

	// The counters must be consistent with the query result.
	wantSum := refRes.Aggregates["SUM(A)"]
	wantCount := refRes.Aggregates["COUNT(A)"]
	if got := info.Result.Aggregates["SUM(A)"]; got != wantSum {
		t.Errorf("SUM = %v, want %v", got, wantSum)
	}
	if got := info.Result.Aggregates["COUNT(A)"]; got != wantCount {
		t.Errorf("COUNT = %v, want %v", got, wantCount)
	}
	// Hand-computed: page 1 contributes 1024 fives; page 2 contributes
	// its values in [3, 7].
	sum, count := int64(1024*5), int64(1024)
	for i := 2048; i < 3072; i++ {
		if v := int64(i % 11); v >= 3 && v <= 7 {
			sum += v
			count++
		}
	}
	if wantSum != float64(sum) || wantCount != float64(count) {
		t.Errorf("reference disagrees with hand computation: got (%v, %v), want (%d, %d)",
			wantSum, wantCount, sum, count)
	}

	// The rendering surfaces the same numbers.
	out := info.String()
	if !strings.Contains(out, "pruned=1") || !strings.Contains(out, "fused=1024") {
		t.Errorf("analyze rendering missing pruned/fused counters:\n%s", out)
	}
}

// TestObsCountersTrackQuery checks the process-global counters observe
// the same pruning and fusion the per-query stats report.
func TestObsCountersTrackQuery(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	before := obs.Capture()

	e := New(planStore(t), ModeETSQPPrune)
	e.Workers = 2
	res, err := e.ExecuteSQL("SELECT SUM(A), COUNT(A) FROM ts WHERE A >= 3 AND A <= 7")
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Capture().Delta(before)

	if got := delta[obs.EngineQueries.Name()]; got != 1 {
		t.Errorf("engine.queries delta = %d, want 1", got)
	}
	if got := delta[obs.PrunePagesValue.Name()]; got != res.Stats.PagesPruned {
		t.Errorf("prune.pages_skipped_value delta = %d, want %d", got, res.Stats.PagesPruned)
	}
	if got := delta[obs.EngineValuesFused.Name()]; got != res.Stats.ValuesFused {
		t.Errorf("engine.values_fused delta = %d, want %d", got, res.Stats.ValuesFused)
	}
	if got := delta[obs.EngineValuesDecoded.Name()]; got != res.Stats.ValuesDecoded {
		t.Errorf("engine.values_decoded delta = %d, want %d", got, res.Stats.ValuesDecoded)
	}
	if got := delta[obs.PrunePagesVacuous.Name()]; got != 1 {
		t.Errorf("prune.pages_filter_vacuous delta = %d, want 1", got)
	}
	if got := delta[obs.EngineRowsOut.Name()]; got != 2 {
		t.Errorf("engine.rows_out delta = %d, want 2", got)
	}
}

// TestExplainLeavesPruneCounters: a plan-only EXPLAIN prunes one page and
// finds one filter vacuous, yet nothing ran, so the process-global prune
// counters stay where they were (they count executed plans only).
func TestExplainLeavesPruneCounters(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	e := New(planStore(t), ModeETSQPPrune)
	e.Workers = 2
	before := obs.Capture()
	info, err := e.Explain("SELECT SUM(A), COUNT(A) FROM ts WHERE A >= 3 AND A <= 7")
	if err != nil {
		t.Fatal(err)
	}
	if info.PagesPruned != 1 {
		t.Fatalf("plan prunes %d pages, want 1", info.PagesPruned)
	}
	delta := obs.Capture().Delta(before)
	for _, c := range []*obs.Counter{obs.EngineQueries, obs.PrunePagesValue, obs.PrunePagesVacuous} {
		if got := delta[c.Name()]; got != 0 {
			t.Errorf("EXPLAIN moved %s by %d, want 0", c.Name(), got)
		}
	}
}

// TestOnePassCounters: a filtered SUM over pages that all straddle the
// constant scans every row, and counts each row once in the query's
// ValuesDecoded, in every mode at one and two workers; and
// pipeline.values_unpacked counts each row once per column the mode
// decodes through the pipeline. The prune mode answers the query in one
// pass, whose rows counters are added once per page job rather than per
// chunk.
func TestOnePassCounters(t *testing.T) {
	columns := map[Mode]int64{
		ModeETSQP:      1,
		ModeETSQPPrune: 1,
		ModeSerial:     0, // the codec's value-at-a-time decoder
		ModeSBoost:     2, // timestamps too: no constant-interval shortcut
		ModeFastLanes:  0,
	}
	const n = 10_000
	ts, vals := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 100
		vals[i] = int64(uint64(i)*0x9E3779B97F4A7C15>>54) - 512 // i.i.d.-like in [-512, 512)
	}
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	for _, mode := range allModes {
		for _, workers := range []int{1, 2} {
			e := New(storeFor(t, mode, ts, vals, 1024), mode)
			e.Workers = workers
			before := obs.Capture()
			res, err := e.ExecuteSQL("SELECT SUM(A), COUNT(A) FROM ts WHERE A > 0")
			if err != nil {
				t.Fatal(err)
			}
			unpacked := obs.Capture().Delta(before)[obs.PipelineValuesUnpacked.Name()]
			st := res.Stats
			if st.PagesPruned != 0 || st.RowsPruned != 0 || st.ValuesFused != 0 {
				t.Fatalf("%v/%d: pruned %d pages and %d rows, fused %d: every row must be scanned", mode, workers, st.PagesPruned, st.RowsPruned, st.ValuesFused)
			}
			if mode == ModeETSQPPrune && st.AggNanos != 0 {
				t.Fatalf("%v/%d: agg stage %d ns: the one pass charges decode only", mode, workers, st.AggNanos)
			}
			if st.ValuesDecoded != n || unpacked != columns[mode]*n {
				t.Errorf("%v/%d workers: ValuesDecoded %d, pipeline.values_unpacked delta %d; want %d and %d", mode, workers, st.ValuesDecoded, unpacked, n, columns[mode]*n)
			}
		}
	}
}

// TestFusedWalkCounters: an unfiltered SUM and a tumbling-window SUM over
// order-1 and order-2 TS2DIFF value pages run the fused walk over every
// row, at one and two workers. The walk adds its rows to
// pipeline.values_unpacked once per call rather than per chunk, so the
// counter's delta is still each row once, and ValuesFused counts each
// row once with nothing decoded.
func TestFusedWalkCounters(t *testing.T) {
	const n = 10_000
	ts, vals := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 100
		vals[i] = int64(uint64(i)*0x9E3779B97F4A7C15>>54) - 512
	}
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	for _, codec := range []string{"ts2diff", "ts2diff2"} {
		st := storage.NewStore()
		if err := st.Append("ts", ts, vals, storage.Options{PageSize: 1024, ValueCodec: codec}); err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{"SELECT SUM(A) FROM ts", "SELECT SUM(A) FROM ts GROUP BY TIME(50000)"} {
			for _, mode := range []Mode{ModeETSQP, ModeETSQPPrune} {
				for _, workers := range []int{1, 2} {
					e := New(st, mode)
					e.Workers = workers
					before := obs.Capture()
					res, err := e.ExecuteSQL(sql)
					if err != nil {
						t.Fatal(err)
					}
					unpacked := obs.Capture().Delta(before)[obs.PipelineValuesUnpacked.Name()]
					if res.Stats.ValuesFused != n || res.Stats.ValuesDecoded != 0 || unpacked != n {
						t.Errorf("%s, %v/%d workers, %s: fused %d, decoded %d, pipeline.values_unpacked delta %d; want %d, 0 and %d",
							codec, mode, workers, sql, res.Stats.ValuesFused, res.Stats.ValuesDecoded, unpacked, n, n)
					}
				}
			}
		}
	}
}

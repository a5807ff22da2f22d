package engine

import (
	"strings"
	"testing"

	"etsqp/internal/storage"
)

// TestPlanInfoHoppingGolden pins the EXPLAIN rendering for overlapping
// (slide < width) window plans in both grammatical forms.
func TestPlanInfoHoppingGolden(t *testing.T) {
	store := planStore(t)
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{
			name: "group-by-time-hopping",
			sql:  "SELECT SUM(A) FROM ts GROUP BY TIME(1024, 512)",
			want: "window query [ETSQP]\n" +
				"  series: ts\n" +
				"  pages: 3  workers: 2  jobs: 3  sliced: false\n" +
				"  fused decoders: true  pruning: false\n" +
				"  window instances: 6\n",
		},
		{
			// The SW form with an explicit anchor at the series start plans
			// identically to the GROUP BY TIME form.
			name: "sw-with-slide",
			sql:  "SELECT SUM(A) FROM ts SW(1000, 1024, 512)",
			want: "window query [ETSQP]\n" +
				"  series: ts\n" +
				"  pages: 3  workers: 2  jobs: 3  sliced: false\n" +
				"  fused decoders: true  pruning: false\n" +
				"  window instances: 6\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(store, ModeETSQP)
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

// TestExplainAnalyzeWindowGolden pins the analyze-annotated rendering of
// a hopping-window aggregate: the fused segment path reports the shared
// segment count next to the instance count (counters deterministic;
// times normalized).
func TestExplainAnalyzeWindowGolden(t *testing.T) {
	e := New(planStore(t), ModeETSQP)
	e.Workers = 2
	info, err := e.ExplainAnalyze("SELECT SUM(A) FROM ts GROUP BY TIME(1024, 512)")
	if err != nil {
		t.Fatal(err)
	}
	want := "window query [ETSQP]\n" +
		"  series: ts\n" +
		"  pages: 3  workers: 2  jobs: 3  sliced: false\n" +
		"  fused decoders: true  pruning: false\n" +
		"  window instances: 6\n" +
		"  analyze:\n" +
		"    pages: relevant=3 read=3 pruned=0\n" +
		"    slices: 3  tuples loaded: 3072  rows pruned: 0  rows out: 6\n" +
		"    values: fused=3072 decoded=0\n" +
		"    window segments: 6\n" +
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

// joinStore builds two aligned 8-page series so a LIMIT-bounded join
// has pages left over to *not* read.
func joinStore(t *testing.T) *storage.Store {
	t.Helper()
	const n = 8 * 1024
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

// TestExplainAnalyzeJoinLimitGolden pins the analyze rendering of a
// LIMIT-bounded natural join: the cursor early-stop must be visible as
// read < relevant and a small batch count.
func TestExplainAnalyzeJoinLimitGolden(t *testing.T) {
	e := New(joinStore(t), ModeETSQP)
	e.Workers = 1
	info, err := e.ExplainAnalyze("SELECT * FROM ts1, ts2 LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	want := "join query [ETSQP]\n" +
		"  series: ts1, ts2\n" +
		"  pages: 16  workers: 1  jobs: 8  sliced: false\n" +
		"  merge ranges: 1\n" +
		"  analyze:\n" +
		"    pages: relevant=16 read=4 pruned=0\n" +
		"    slices: 0  tuples loaded: 2048  rows pruned: 0  rows out: 4\n" +
		"    values: fused=0 decoded=2048\n" +
		"    merge ranges: 1\n" +
		"    cursor batches: 2\n" +
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
		"      slice [0, 1024) rows=1024 fused=false dur=<t>\n" +
		"      slice [0, 1024) rows=1024 fused=false dur=<t>\n"
	if got := normalizeAnalyze(info.String()); got != want {
		t.Errorf("analyze mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
	st := info.Result.Stats
	if st.PagesRead >= st.PagesTotal {
		t.Errorf("LIMIT did not stop cursors early: read %d of %d pages", st.PagesRead, st.PagesTotal)
	}
}

// zeroDurations blanks every timing- or environment-dependent field of
// a trace in place so its JSON form is byte-stable: span durations, the
// minted trace ID, and the resource fields that vary run to run (CPU
// time; the arena high-water mark depends on what earlier tests left in
// the shared pool's arenas). The deterministic resource counts (morsels,
// pages, bytes) stay pinned.
func zeroDurations(tr *Trace) {
	tr.ElapsedNs = 0
	tr.TraceID = "tid"
	if tr.Resources != nil {
		tr.Resources.CPUNanos = 0
		tr.Resources.ArenaHighWater = 0
	}
	var walk func(*Span)
	walk = func(s *Span) {
		s.DurNs = 0
		for i := range s.Children {
			walk(&s.Children[i])
		}
	}
	walk(&tr.Root)
	for i := range tr.Slices {
		tr.Slices[i].DurNs = 0
	}
}

// TestTraceJSONWindowJoinGolden pins the trace-JSON schema for windowed
// and joined plans end to end: real queries run single-worker, timings
// zeroed, and the whole document compared byte for byte.
func TestTraceJSONWindowJoinGolden(t *testing.T) {
	t.Run("window", func(t *testing.T) {
		e := New(planStore(t), ModeETSQP)
		e.Workers = 1
		_, tr, err := e.TraceSQL("SELECT SUM(A) FROM ts GROUP BY TIME(1024, 512)")
		if err != nil {
			t.Fatal(err)
		}
		zeroDurations(tr)
		var b strings.Builder
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		want := `{"query":"SELECT SUM(A) FROM ts GROUP BY TIME(1024, 512)",` +
			`"mode":"ETSQP","workers":1,"elapsed_ns":0,` +
			`"span":{"name":"query","dur_ns":0,"children":[` +
			`{"name":"parse","dur_ns":0},{"name":"plan","dur_ns":0},` +
			`{"name":"prune","dur_ns":0},{"name":"io","dur_ns":0},` +
			`{"name":"decode","dur_ns":0},{"name":"filter","dur_ns":0},` +
			`{"name":"agg","dur_ns":0},{"name":"window","dur_ns":0},` +
			`{"name":"merge","dur_ns":0},{"name":"other","dur_ns":0}]},` +
			`"slices":[` +
			`{"start_row":0,"end_row":1024,"rows":1024,"fused":true,"dur_ns":0},` +
			`{"start_row":0,"end_row":1024,"rows":1024,"fused":true,"dur_ns":0},` +
			`{"start_row":0,"end_row":1024,"rows":1024,"fused":true,"width":4,"dur_ns":0}],` +
			`"slices_total":3,"trace_id":"tid",` +
			`"resources":{"cpu_ns":0,"morsels":3,"pages_read":3,` +
			`"bytes_scanned":665,"values_decoded":0,"cache_hits":0,"cache_misses":0,` +
			`"arena_high_bytes":0}}` + "\n"
		if got := b.String(); got != want {
			t.Errorf("trace JSON mismatch\ngot:  %swant: %s", got, want)
		}
	})
	t.Run("join-limit", func(t *testing.T) {
		e := New(joinStore(t), ModeETSQP)
		e.Workers = 1
		_, tr, err := e.TraceSQL("SELECT * FROM ts1, ts2 LIMIT 4")
		if err != nil {
			t.Fatal(err)
		}
		zeroDurations(tr)
		var b strings.Builder
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		// The two recorded slice events are the single batch each cursor
		// pulled before the LIMIT stopped the join; slices_total stays 0
		// because cursor batches are not pipeline jobs.
		want := `{"query":"SELECT * FROM ts1, ts2 LIMIT 4",` +
			`"mode":"ETSQP","workers":1,"elapsed_ns":0,` +
			`"span":{"name":"query","dur_ns":0,"children":[` +
			`{"name":"parse","dur_ns":0},{"name":"plan","dur_ns":0},` +
			`{"name":"prune","dur_ns":0},{"name":"io","dur_ns":0},` +
			`{"name":"decode","dur_ns":0},{"name":"filter","dur_ns":0},` +
			`{"name":"agg","dur_ns":0},{"name":"window","dur_ns":0},` +
			`{"name":"merge","dur_ns":0},{"name":"other","dur_ns":0}]},` +
			`"slices":[` +
			`{"start_row":0,"end_row":1024,"rows":1024,"fused":false,"dur_ns":0},` +
			`{"start_row":0,"end_row":1024,"rows":1024,"fused":false,"dur_ns":0}],` +
			`"slices_total":0,"trace_id":"tid",` +
			`"resources":{"cpu_ns":0,"morsels":1,"pages_read":4,` +
			`"bytes_scanned":972,"values_decoded":2048,"cache_hits":0,"cache_misses":0,` +
			`"arena_high_bytes":0}}` + "\n"
		if got := b.String(); got != want {
			t.Errorf("trace JSON mismatch\ngot:  %swant: %s", got, want)
		}
	})
}

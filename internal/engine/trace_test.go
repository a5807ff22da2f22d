package engine

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"etsqp/internal/sqlparse"
)

// TestTraceStageSumWithinBound is the acceptance property: on a
// single-worker run the span tree's stage durations (including the
// explicit "other" span) sum to within 10% of the traced wall time.
func TestTraceStageSumWithinBound(t *testing.T) {
	e := New(planStore(t), ModeETSQP)
	e.Workers = 1
	res, tr, err := e.TraceSQL("SELECT SUM(A), COUNT(A) FROM ts")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || tr == nil {
		t.Fatal("TraceSQL returned nil result or trace")
	}
	if tr.ElapsedNs <= 0 {
		t.Fatalf("ElapsedNs = %d, want > 0", tr.ElapsedNs)
	}
	sum := tr.StageSum()
	diff := sum - tr.ElapsedNs
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.10*float64(tr.ElapsedNs) {
		t.Errorf("stage sum %d differs from elapsed %d by more than 10%%", sum, tr.ElapsedNs)
	}
}

// TestTraceSpanTreeShape checks the assembled tree: a query root whose
// children are the pipeline stages in execution order, per-slice events
// carrying the Proposition 1 n_v for TS2DIFF pages, and an exact total
// slice count.
func TestTraceSpanTreeShape(t *testing.T) {
	e := New(planStore(t), ModeETSQP)
	e.Workers = 2
	res, tr, err := e.TraceSQL("SELECT SUM(A) FROM ts")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Name != "query" {
		t.Errorf("root span = %q, want query", tr.Root.Name)
	}
	wantOrder := []string{"parse", "plan", "prune", "io", "decode", "filter", "agg", "window", "merge", "other"}
	if len(tr.Root.Children) != len(wantOrder) {
		t.Fatalf("root has %d children, want %d", len(tr.Root.Children), len(wantOrder))
	}
	for i, name := range wantOrder {
		if tr.Root.Children[i].Name != name {
			t.Errorf("child %d = %q, want %q", i, tr.Root.Children[i].Name, name)
		}
		if tr.Root.Children[i].DurNs < 0 {
			t.Errorf("span %q has negative duration %d", name, tr.Root.Children[i].DurNs)
		}
	}
	if tr.SlicesTotal != res.Stats.SlicesRun {
		t.Errorf("SlicesTotal = %d, want SlicesRun = %d", tr.SlicesTotal, res.Stats.SlicesRun)
	}
	if len(tr.Slices) != 3 {
		t.Fatalf("recorded %d slice events, want 3", len(tr.Slices))
	}
	rows := 0
	for _, ev := range tr.Slices {
		rows += ev.Rows
		if !ev.Fused {
			t.Errorf("slice %+v not fused; the fused aggregate path should fuse all pages", ev)
		}
		if !ev.packed {
			t.Errorf("slice %+v missing the TS2DIFF packing width", ev)
		}
	}
	if rows != 3072 {
		t.Errorf("slice rows sum to %d, want 3072", rows)
	}
}

// TestTraceJSONGolden pins the JSON schema: field names and order are
// part of the trace contract (consumers parse slow-query log lines).
func TestTraceJSONGolden(t *testing.T) {
	tr := NewTrace("SELECT SUM(A) FROM ts", "ETSQP", 2)
	tr.TraceID = "00f1e2d3c4b5a697" // minted IDs are process-unique; pin one
	tr.parseNs = 10
	tr.planNs = 20
	tr.finish(Stats{
		SlicesRun:  1,
		PruneNanos: 30, IONanos: 40, DecodeNanos: 50,
		FilterNanos: 60, AggNanos: 70, WindowNanos: 5, MergeNanos: 80,
		CPUNanos: 100, MorselsRun: 3, MorselsStolen: 1,
		PagesRead: 2, BytesScanned: 64, ValuesDecoded: 8,
		CacheHits: 1, CacheMisses: 1, ArenaHighWater: 4096,
	}, 400*time.Nanosecond)
	tr.addSlice(SliceEvent{StartRow: 0, EndRow: 8, Rows: 8, Fused: true, Width: 4, DurNs: 90})
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"query":"SELECT SUM(A) FROM ts","mode":"ETSQP","workers":2,` +
		`"elapsed_ns":400,"span":{"name":"query","dur_ns":400,"children":[` +
		`{"name":"parse","dur_ns":10},{"name":"plan","dur_ns":20},` +
		`{"name":"prune","dur_ns":30},{"name":"io","dur_ns":40},` +
		`{"name":"decode","dur_ns":50},{"name":"filter","dur_ns":60},` +
		`{"name":"agg","dur_ns":70},{"name":"window","dur_ns":5},` +
		`{"name":"merge","dur_ns":80},` +
		`{"name":"other","dur_ns":65}]},` +
		`"slices":[{"start_row":0,"end_row":8,"rows":8,"fused":true,"width":4,"dur_ns":90}],` +
		`"slices_total":1,"trace_id":"00f1e2d3c4b5a697",` +
		`"resources":{"cpu_ns":100,"morsels":3,"pages_read":2,` +
		`"bytes_scanned":64,"values_decoded":8,"cache_hits":1,"cache_misses":1,` +
		`"arena_high_bytes":4096}}` + "\n"
	if got := b.String(); got != want {
		t.Errorf("trace JSON mismatch\ngot:  %s\nwant: %s", got, want)
	}
	// The document round-trips.
	var back Trace
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if back.ElapsedNs != 400 || back.Root.Name != "query" || len(back.Slices) != 1 {
		t.Errorf("round-tripped trace lost fields: %+v", &back)
	}
}

// TestTraceOtherSpanClamped checks the "other" span never goes negative
// when parallel stage sums exceed the wall time.
func TestTraceOtherSpanClamped(t *testing.T) {
	tr := NewTrace("q", "ETSQP", 4)
	tr.finish(Stats{IONanos: 500, DecodeNanos: 600}, 100*time.Nanosecond)
	other := tr.Root.Children[len(tr.Root.Children)-1]
	if other.Name != "other" {
		t.Fatalf("last child = %q, want other", other.Name)
	}
	if other.DurNs != 0 {
		t.Errorf("other span = %d, want 0 (clamped)", other.DurNs)
	}
}

// TestTraceSliceCap checks per-slice detail is bounded while the total
// stays exact.
func TestTraceSliceCap(t *testing.T) {
	tr := NewTrace("q", "ETSQP", 1)
	for i := 0; i < maxTraceSlices+50; i++ {
		tr.addSlice(SliceEvent{StartRow: i, EndRow: i + 1, Rows: 1})
	}
	if len(tr.Slices) != maxTraceSlices {
		t.Errorf("retained %d slice events, want cap %d", len(tr.Slices), maxTraceSlices)
	}
	tr.finish(Stats{SlicesRun: int64(maxTraceSlices + 50)}, time.Microsecond)
	if tr.SlicesTotal != int64(maxTraceSlices+50) {
		t.Errorf("SlicesTotal = %d, want %d", tr.SlicesTotal, maxTraceSlices+50)
	}
}

// TestTraceNilDisabled checks a nil trace leaves execution untouched:
// ExecuteTraced(q, nil) equals Execute(q).
func TestTraceNilDisabled(t *testing.T) {
	e := New(planStore(t), ModeETSQP)
	e.Workers = 2
	q, err := sqlparse.Parse("SELECT SUM(A) FROM ts")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteTraced(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregates["SUM(A)"] != ref.Aggregates["SUM(A)"] {
		t.Errorf("traced-nil result %v != plain result %v", res.Aggregates, ref.Aggregates)
	}
}

// TestTraceScanSlices checks the row-pipeline (scan) path also records
// per-slice events.
func TestTraceScanSlices(t *testing.T) {
	e := New(planStore(t), ModeETSQP)
	e.Workers = 2
	res, tr, err := e.TraceSQL("SELECT * FROM ts WHERE A >= 3 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Time) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Time))
	}
	if len(tr.Slices) == 0 {
		t.Error("scan trace recorded no slice events")
	}
	for _, ev := range tr.Slices {
		if ev.Rows != ev.EndRow-ev.StartRow {
			t.Errorf("slice %+v row count inconsistent", ev)
		}
	}
}

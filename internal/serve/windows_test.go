package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"etsqp/internal/engine"
	"etsqp/internal/obs"
)

// TestSlowRingBoundedAndDropped checks the in-memory slow-query ring
// holds at most SlowMax traces, evicts oldest-first, and counts every
// eviction both on the server and in the obs registry.
func TestSlowRingBoundedAndDropped(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	s := testServer(t, nil)
	s.SlowMax = 2
	var traces []*engine.Trace
	for i := 0; i < 5; i++ {
		tr := engine.NewTrace(fmt.Sprintf("SELECT %d", i), "ETSQP", 1)
		tr.ElapsedNs = int64(i + 1)
		traces = append(traces, tr)
		s.logSlow(tr)
	}
	got := s.SlowEntries()
	if len(got) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(got))
	}
	// Oldest-first: the two survivors are traces 3 and 4.
	if got[0].TraceID != traces[3].TraceID || got[1].TraceID != traces[4].TraceID {
		t.Errorf("ring holds %s,%s, want %s,%s (newest two, oldest first)",
			got[0].TraceID, got[1].TraceID, traces[3].TraceID, traces[4].TraceID)
	}
	if d := s.SlowDropped(); d != 3 {
		t.Errorf("SlowDropped() = %d, want 3", d)
	}
	if v := obs.Capture()["serve.slow_dropped"]; v != 3 {
		t.Errorf("serve.slow_dropped = %d, want 3", v)
	}
	count, _ := s.SlowStats()
	if count != 5 {
		t.Errorf("slow count = %d, want 5 (eviction does not uncount)", count)
	}
}

// TestSlowMaxDisabled checks a negative SlowMax retains nothing while
// still counting.
func TestSlowMaxDisabled(t *testing.T) {
	s := testServer(t, nil)
	s.SlowMax = -1
	tr := engine.NewTrace("SELECT 1", "ETSQP", 1)
	tr.ElapsedNs = 1
	s.logSlow(tr)
	if got := s.SlowEntries(); len(got) != 0 {
		t.Errorf("ring holds %d traces with SlowMax<0, want 0", len(got))
	}
	if count, _ := s.SlowStats(); count != 1 {
		t.Errorf("slow count = %d, want 1", count)
	}
}

// TestWindowsEndpoint drives the sampler with a deterministic clock
// around real /query traffic and checks the /debug/windows document:
// per-horizon QPS and quantiles, the top-queries ranking with trace
// IDs, and the slow-log summary.
func TestWindowsEndpoint(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	s := testServer(t, nil)
	s.Windows = obs.NewWindow(time.Second, time.Minute)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	base := time.Unix(1_700_000_000, 0)
	s.Windows.Tick(base)
	httpGet(t, srv.URL+"/query?q=SELECT+SUM(A)+FROM+ts")
	httpGet(t, srv.URL+"/query?q=SELECT+COUNT(A)+FROM+ts")
	s.Windows.Tick(base.Add(2 * time.Second))

	doc, err := FetchWindows(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if doc.PoolWorkers <= 0 {
		t.Errorf("PoolWorkers = %d, want > 0", doc.PoolWorkers)
	}
	if len(doc.Windows) != 3 {
		t.Fatalf("got %d windows, want 3 (10s/1m/5m): %+v", len(doc.Windows), doc.Windows)
	}
	for _, w := range doc.Windows {
		if w.Seconds != 2 {
			t.Errorf("window %s spans %.1fs, want the 2s between ticks", w.Label, w.Seconds)
		}
		if w.QPS != 1 { // 2 queries / 2 seconds
			t.Errorf("window %s QPS = %.2f, want 1", w.Label, w.QPS)
		}
		if w.P99Ns <= 0 || w.P50Ns <= 0 {
			t.Errorf("window %s quantiles missing: p50=%v p99=%v", w.Label, w.P50Ns, w.P99Ns)
		}
		if w.MorselsPerSec <= 0 {
			t.Errorf("window %s morsels/s = %v, want > 0", w.Label, w.MorselsPerSec)
		}
	}
	if doc.Gauges["go.goroutines"] <= 0 {
		t.Errorf("runtime gauges missing: %v", doc.Gauges)
	}
	if len(doc.Top) != 2 {
		t.Fatalf("top list has %d entries, want 2", len(doc.Top))
	}
	for _, q := range doc.Top {
		if q.TraceID == "" || q.ElapsedNs <= 0 {
			t.Errorf("top entry implausible: %+v", q)
		}
	}
	if doc.Top[0].CPUNs < doc.Top[1].CPUNs {
		t.Errorf("top list not sorted by CPU: %d before %d", doc.Top[0].CPUNs, doc.Top[1].CPUNs)
	}
	if doc.Slow.Count != 2 || doc.Slow.Max != defaultSlowMax {
		t.Errorf("slow summary = %+v, want count 2 max %d", doc.Slow, defaultSlowMax)
	}
}

// TestPoolUtilizationClamped checks the derived utilization caps at
// 100%: submitter goroutines run morsels alongside the pool workers, so
// raw morsel time can exceed worker capacity.
func TestPoolUtilizationClamped(t *testing.T) {
	ws := &obs.WindowStats{
		Seconds: 1,
		Hists: map[string]obs.HistogramSnapshot{
			// 3s of morsel time against 2 workers over a 1s window.
			"exec.hist.morsel_ns": {Name: "exec.hist.morsel_ns", Sum: 3_000_000_000, Count: 3},
		},
	}
	if d := buildWindowDoc("10s", ws, 2); d.PoolUtilization != 1 {
		t.Errorf("PoolUtilization = %v with oversubscribed morsel time, want clamped 1", d.PoolUtilization)
	}
	ws.Hists["exec.hist.morsel_ns"] = obs.HistogramSnapshot{
		Name: "exec.hist.morsel_ns", Sum: 1_000_000_000, Count: 1,
	}
	if d := buildWindowDoc("10s", ws, 2); d.PoolUtilization != 0.5 {
		t.Errorf("PoolUtilization = %v, want 0.5", d.PoolUtilization)
	}
}

// TestTrimQueryRuneBoundary checks table truncation never splits a
// multi-byte rune into an invalid sequence.
func TestTrimQueryRuneBoundary(t *testing.T) {
	q := strings.Repeat("€", 5) // 3 bytes per rune
	got := trimQuery(q, 9)      // cut lands mid-rune at byte 8
	if !utf8.ValidString(got) {
		t.Errorf("trimQuery produced invalid UTF-8: %q", got)
	}
	if want := "€€…"; got != want {
		t.Errorf("trimQuery = %q, want %q", got, want)
	}
	if got := trimQuery("SELECT 1", 60); got != "SELECT 1" {
		t.Errorf("short query mangled: %q", got)
	}
}

// TestWindowsEndpointNoSampler checks the endpoint degrades cleanly
// with no Window configured.
func TestWindowsEndpointNoSampler(t *testing.T) {
	s := testServer(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	doc, err := FetchWindows(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Windows) != 0 {
		t.Errorf("got %d windows without a sampler, want 0", len(doc.Windows))
	}
}

// TestRunTopRendersFrame runs one console frame against a live server
// and checks the headline sections render.
func TestRunTopRendersFrame(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	s := testServer(t, nil)
	s.Windows = obs.NewWindow(time.Second, time.Minute)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	base := time.Unix(1_700_000_000, 0)
	s.Windows.Tick(base)
	httpGet(t, srv.URL+"/query?q=SELECT+SUM(A)+FROM+ts")
	s.Windows.Tick(base.Add(time.Second))

	var out bytes.Buffer
	if err := RunTop(&out, srv.URL, time.Millisecond, 1, 5); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"etsqp top", "window", "trace id", "10s", "SELECT SUM(A) FROM ts"} {
		if !strings.Contains(got, want) {
			t.Errorf("console frame missing %q:\n%s", want, got)
		}
	}
	if err := RunTop(&out, "http://127.0.0.1:1", time.Millisecond, 1, 5); err == nil {
		t.Error("RunTop against a dead server returned nil error")
	}
}

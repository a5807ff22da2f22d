package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"etsqp/internal/engine"
	"etsqp/internal/obs"
	"etsqp/internal/storage"
	"etsqp/internal/transport"

	_ "etsqp/internal/encoding/ts2diff"
)

// testStore builds a deterministic 3-page store (mirrors the engine
// package's plan fixture).
func testStore(t *testing.T) *storage.Store {
	t.Helper()
	const pageSize = 1024
	n := 3 * pageSize
	ts := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		ts[i] = 1000 + int64(i)
		vals[i] = int64(i % 11)
	}
	st := storage.NewStore()
	if err := st.Append("ts", ts, vals, storage.Options{PageSize: pageSize}); err != nil {
		t.Fatal(err)
	}
	return st
}

func testServer(t *testing.T, slowLog *bytes.Buffer) *Server {
	t.Helper()
	st := testStore(t)
	e := engine.New(st, engine.ModeETSQP)
	e.Workers = 1
	s := &Server{Engine: e, Store: st, SlowThreshold: 0, MaxRows: 20}
	if slowLog != nil {
		s.SlowLog = slowLog
	}
	return s
}

// TestMetricsHistogramGolden pins the Prometheus exposition of one
// histogram: cumulative non-empty buckets, the +Inf bucket, sum and
// count, with power-of-two le bounds.
func TestMetricsHistogramGolden(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	obs.TransportHistFrameBytes.Observe(0)    // bucket 0, le="1"
	obs.TransportHistFrameBytes.Observe(3)    // bucket 2, le="4"
	obs.TransportHistFrameBytes.Observe(1024) // bucket 11, le="2048"
	var b strings.Builder
	if err := WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	var block []string
	for _, ln := range strings.Split(b.String(), "\n") {
		if strings.Contains(ln, "etsqp_transport_hist_frame_bytes") {
			block = append(block, ln)
		}
	}
	want := []string{
		`# HELP etsqp_transport_hist_frame_bytes wire-size distribution of frames written and parsed`,
		`# TYPE etsqp_transport_hist_frame_bytes histogram`,
		`etsqp_transport_hist_frame_bytes_bucket{le="1"} 1`,
		`etsqp_transport_hist_frame_bytes_bucket{le="4"} 2`,
		`etsqp_transport_hist_frame_bytes_bucket{le="2048"} 3`,
		`etsqp_transport_hist_frame_bytes_bucket{le="+Inf"} 3`,
		`etsqp_transport_hist_frame_bytes_sum 1027`,
		`etsqp_transport_hist_frame_bytes_count 3`,
	}
	if len(block) != len(want) {
		t.Fatalf("histogram block has %d lines, want %d:\n%s", len(block), len(want), strings.Join(block, "\n"))
	}
	for i := range want {
		if block[i] != want[i] {
			t.Errorf("line %d:\ngot:  %s\nwant: %s", i, block[i], want[i])
		}
	}
}

// TestMetricsTopBucketNoDuplicateInf checks a populated top bucket
// (values >= 2^62, whose bound is +Inf) does not emit a second
// le="+Inf" sample alongside the mandatory trailing one.
func TestMetricsTopBucketNoDuplicateInf(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	obs.TransportHistFrameBytes.Observe(3)
	obs.TransportHistFrameBytes.Observe(1 << 62) // top bucket
	var b strings.Builder
	if err := WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	infLines := 0
	for _, ln := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(ln, `etsqp_transport_hist_frame_bytes_bucket{le="+Inf"} `) {
			infLines++
			if ln != `etsqp_transport_hist_frame_bytes_bucket{le="+Inf"} 2` {
				t.Errorf("+Inf bucket must carry the full count: %q", ln)
			}
		}
	}
	if infLines != 1 {
		t.Errorf("got %d le=\"+Inf\" samples, want exactly 1", infLines)
	}
}

// TestMetricsExpositionValid checks every line of the classic /metrics
// exposition is well-formed Prometheus text format (version 0.0.4) and
// every registered metric appears: counters as single samples,
// histograms with bucket, sum and count series ending in the mandatory
// le="+Inf" bucket — and no OpenMetrics-only syntax (exemplars, # EOF)
// leaks in, since a 0.0.4 parser rejects it.
func TestMetricsExpositionValid(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	// Put real traffic through so histograms have non-trivial buckets.
	e := engine.New(testStore(t), engine.ModeETSQP)
	if _, err := e.ExecuteSQL("SELECT SUM(A), COUNT(A) FROM ts"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	helpRe := regexp.MustCompile(`^# HELP etsqp_[a-z0-9_]+ .+$`)
	typeRe := regexp.MustCompile(`^# TYPE etsqp_[a-z0-9_]+ (counter|gauge|histogram)$`)
	sampleRe := regexp.MustCompile(`^etsqp_[a-z0-9_]+(_bucket\{le="([0-9.e+]+|\+Inf)"\})? -?\d+$`)
	for _, ln := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(ln, "# HELP "):
			if !helpRe.MatchString(ln) {
				t.Errorf("malformed HELP line: %q", ln)
			}
		case strings.HasPrefix(ln, "# TYPE "):
			if !typeRe.MatchString(ln) {
				t.Errorf("malformed TYPE line: %q", ln)
			}
		default:
			if !sampleRe.MatchString(ln) {
				t.Errorf("malformed sample line: %q", ln)
			}
		}
	}
	for _, m := range obs.Metrics() {
		if !strings.Contains(out, promName(m.Name)+" ") {
			t.Errorf("counter %s missing from exposition", m.Name)
		}
	}
	for _, g := range obs.Gauges() {
		if !strings.Contains(out, "# TYPE "+promName(g.Name)+" gauge\n") {
			t.Errorf("gauge %s missing from exposition", g.Name)
		}
	}
	for _, h := range obs.Histograms() {
		n := promName(h.Name)
		for _, suffix := range []string{`_bucket{le="+Inf"} `, "_sum ", "_count "} {
			if !strings.Contains(out, n+suffix) {
				t.Errorf("histogram %s missing %s series", h.Name, strings.TrimSpace(suffix))
			}
		}
	}
	// The query must have landed in the query-latency histogram.
	if !regexp.MustCompile(`etsqp_engine_hist_query_ns_count [1-9]`).MatchString(out) {
		t.Error("engine.hist.query_ns count is zero after a query")
	}
}

// TestMetricsContentNegotiation checks a plain /metrics scrape gets
// the classic 0.0.4 text format with bare counter samples.
func TestMetricsContentNegotiation(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	s := testServer(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	httpGet(t, srv.URL+"/query?q=SELECT+SUM(A)+FROM+ts")

	plain, ct := httpGetAccept(t, srv.URL+"/metrics", "")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("default scrape Content-Type = %q, want classic 0.0.4", ct)
	}
	if !strings.Contains(plain, "etsqp_engine_queries 1\n") {
		t.Error("classic scrape missing bare counter sample etsqp_engine_queries")
	}
}

// TestMetricsIgnoresOpenMetricsAccept checks a scrape that prefers
// OpenMetrics, as Prometheus's does, still gets the 0.0.4 text: the
// same content type and body as a plain GET, with no OpenMetrics
// trailer and no exemplar.
func TestMetricsIgnoresOpenMetricsAccept(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	s := testServer(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	httpGet(t, srv.URL+"/query?q=SELECT+SUM(A)+FROM+ts")
	// With collection off, neither scrape moves a counter or samples a
	// runtime gauge, so the two bodies must match byte for byte.
	obs.Disable()

	plain, _ := httpGetAccept(t, srv.URL+"/metrics", "")
	om, ct := httpGetAccept(t, srv.URL+"/metrics",
		"application/openmetrics-text; version=1.0.0; q=0.5, text/plain; version=0.0.4; q=0.4")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("OpenMetrics-preferring scrape Content-Type = %q, want classic 0.0.4", ct)
	}
	if strings.Contains(om, "# EOF") || strings.Contains(om, "trace_id=") {
		t.Error("scrape carries OpenMetrics-only syntax")
	}
	if om != plain {
		t.Errorf("OpenMetrics-preferring scrape differs from a plain GET:\n%s\n---\n%s", om, plain)
	}
}

// TestQueryEndpointAndSlowLog is the acceptance scenario: a query over
// the slow threshold produces a span-tree JSON log line whose stage
// durations sum to within 10% of the query's wall time.
func TestQueryEndpointAndSlowLog(t *testing.T) {
	var slowLog bytes.Buffer
	s := testServer(t, &slowLog)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := httpGet(t, srv.URL+"/query?q=SELECT+SUM(A),+COUNT(A)+FROM+ts")
	if !strings.Contains(resp, "SUM(A) = ") || !strings.Contains(resp, "COUNT(A) = ") {
		t.Fatalf("query response missing aggregates:\n%s", resp)
	}
	line := strings.TrimSpace(slowLog.String())
	if line == "" {
		t.Fatal("slow-query log empty with threshold 0")
	}
	var tr engine.Trace
	if err := json.Unmarshal([]byte(line), &tr); err != nil {
		t.Fatalf("slow-query line is not trace JSON: %v\n%s", err, line)
	}
	if tr.ElapsedNs <= 0 || tr.Root.Name != "query" {
		t.Fatalf("trace implausible: %+v", &tr)
	}
	var sum int64
	for _, sp := range tr.Root.Children {
		if sp.Name == "parse" || sp.Name == "plan" {
			continue
		}
		sum += sp.DurNs
	}
	diff := sum - tr.ElapsedNs
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.10*float64(tr.ElapsedNs) {
		t.Errorf("logged stage sum %d differs from elapsed %d by more than 10%%", sum, tr.ElapsedNs)
	}
}

// TestSlowLogThresholdGates checks fast queries stay out of the log.
func TestSlowLogThresholdGates(t *testing.T) {
	var slowLog bytes.Buffer
	s := testServer(t, &slowLog)
	s.SlowThreshold = time.Hour
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	httpGet(t, srv.URL+"/query?q=SELECT+SUM(A)+FROM+ts")
	if slowLog.Len() != 0 {
		t.Errorf("fast query logged as slow:\n%s", slowLog.String())
	}
}

// TestSlowStats checks the slow-query counters track threshold
// crossings even without a log sink, and stay zero when disabled.
func TestSlowStats(t *testing.T) {
	s := testServer(t, nil) // SlowLog nil: counting must not need a sink
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	httpGet(t, srv.URL+"/query?q=SELECT+SUM(A)+FROM+ts")
	httpGet(t, srv.URL+"/query?q=SELECT+COUNT(A)+FROM+ts")
	count, lastNs := s.SlowStats()
	if count != 2 {
		t.Errorf("slow count = %d after 2 queries at threshold 0, want 2", count)
	}
	if lastNs <= 0 {
		t.Errorf("last slow elapsed = %dns, want > 0", lastNs)
	}

	s.SlowThreshold = -1 // disabled: nothing counts
	httpGet(t, srv.URL+"/query?q=SELECT+SUM(A)+FROM+ts")
	if c, _ := s.SlowStats(); c != count {
		t.Errorf("slow count moved to %d with logging disabled, want %d", c, count)
	}
}

// TestQueryTraceParam checks ?trace=1 returns the trace document.
func TestQueryTraceParam(t *testing.T) {
	s := testServer(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/query?q=SELECT+SUM(A)+FROM+ts&trace=1")
	var tr engine.Trace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace response does not parse: %v", err)
	}
	if tr.Query != "SELECT SUM(A) FROM ts" || len(tr.Root.Children) == 0 {
		t.Errorf("trace response implausible: %+v", &tr)
	}
}

// TestQueryErrors checks bad requests surface as 400s.
func TestQueryErrors(t *testing.T) {
	s := testServer(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, url := range []string{"/query", "/query?q=NOT+SQL"} {
		res, err := srv.Client().Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", url, res.StatusCode)
		}
	}
}

// TestPprofAndHealthz checks the profiling index and liveness endpoints
// are mounted, and the retired /debug/vars and /debug/dash are not.
func TestPprofAndHealthz(t *testing.T) {
	s := testServer(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for url, want := range map[string]int{
		"/debug/pprof/": 200, "/healthz": 200, "/metrics": 200,
		"/debug/vars": 404, "/debug/dash": 404,
	} {
		res, err := srv.Client().Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != want {
			t.Errorf("%s: status %d, want %d", url, res.StatusCode, want)
		}
	}
}

// TestIngestListenerFeedsQueries runs the full loop: a sender ships
// encoded pages over TCP into the served store, and /query answers over
// the delivered data.
func TestIngestListenerFeedsQueries(t *testing.T) {
	st := storage.NewStore()
	e := engine.New(st, engine.ModeETSQP)
	e.Workers = 1
	s := &Server{Engine: e, Store: st, MaxRows: 20}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.ServeIngest(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	snd := transport.NewSender(conn, 100, storage.Options{})
	const n = 500
	for i := 0; i < n; i++ {
		if err := snd.Record("temp", int64(i+1)*1000, int64(i%13)); err != nil {
			t.Fatal(err)
		}
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The receiver goroutine races the sender's close; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ser, ok := st.Series("temp"); ok && ser.NumPoints() == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ingested series never reached expected size")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/query?q=SELECT+COUNT(A)+FROM+temp")
	if !strings.Contains(body, "COUNT(A) = 500") {
		t.Errorf("query over ingested data wrong:\n%s", body)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	body, _ := httpGetAccept(t, url, "")
	return body
}

// httpGetAccept is httpGet with an explicit Accept header, for
// content-negotiation tests; it also returns the Content-Type.
func httpGetAccept(t *testing.T, url, accept string) (body, contentType string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 200 {
		t.Fatalf("GET %s: status %d\n%s", url, res.StatusCode, b)
	}
	return string(b), res.Header.Get("Content-Type")
}

// Package serve is the live observability surface of the engine: an
// HTTP server exposing the obs registry as Prometheus text exposition
// (/metrics), as a /debug/vars-style JSON document, the stdlib pprof
// profiling handlers, and a /query endpoint that executes SQL with
// tracing on and emits a span-tree JSON line to the slow-query log for
// any query over the configured threshold. An optional TCP listener
// ingests transport frames into the served store, so a running server
// is a complete device-to-dashboard loop: devices ship encoded pages
// in, operators read quantiles and profiles out.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"etsqp/internal/cli"
	"etsqp/internal/engine"
	"etsqp/internal/obs"
	"etsqp/internal/storage"
	"etsqp/internal/transport"
)

// defaultSlowMax bounds the in-memory slow-query trace ring when the
// server does not configure SlowMax.
const defaultSlowMax = 1024

// recentCap bounds the recent-query ring feeding the top-N view.
const recentCap = 512

// Server wires an engine and its store to the HTTP surface.
type Server struct {
	Engine *engine.Engine
	Store  *storage.Store

	// SlowThreshold gates the slow-query log: a /query execution whose
	// wall time meets or exceeds it emits one trace-JSON line to SlowLog.
	// Zero logs every query; negative disables the log.
	SlowThreshold time.Duration
	// SlowLog receives slow-query trace lines (nil disables).
	SlowLog io.Writer
	// MaxRows caps row output on /query (0 = unlimited).
	MaxRows int
	// SlowMax caps the slow-query traces retained in memory for
	// /debug/windows and exemplar resolution; when the ring is full the
	// oldest entry is dropped and counted (obs serve.slow_dropped). Zero
	// selects defaultSlowMax; negative retains none.
	SlowMax int
	// Windows, when non-nil, is the rolling-window sampler backing
	// /debug/windows and /debug/dash. The caller owns its lifecycle
	// (obs.NewWindow(...).Start()).
	Windows *obs.Window

	logMu       sync.Mutex
	slowCount   int64           //etsqp:guardedby logMu
	lastSlowNs  int64           //etsqp:guardedby logMu
	slowRing    []*engine.Trace //etsqp:guardedby logMu
	slowHead    int             //etsqp:guardedby logMu
	slowDropped int64           //etsqp:guardedby logMu

	recMu   sync.Mutex
	recent  []QuerySummary //etsqp:guardedby recMu
	recHead int            //etsqp:guardedby recMu
}

// Handler builds the HTTP mux:
//
//	/metrics          Prometheus text exposition of every obs metric
//	/debug/vars       JSON registry dump (counters + histogram summaries)
//	/debug/pprof/...  stdlib profiling endpoints
//	/query?q=SQL      execute a statement with tracing on
//	/healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Exemplars are OpenMetrics-only syntax: a classic text-format
		// parser errors on the trailing "# {...}", so the richer format is
		// served only to scrapers that negotiate it via Accept.
		if acceptsOpenMetrics(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", openMetricsContentType)
			_ = WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteVars(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/windows", s.handleWindows)
	mux.HandleFunc("/debug/dash", handleDash)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleQuery executes ?q= (or the POST body) with tracing on, renders
// the result as the shell would, and feeds the slow-query log.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("q")
	if sql == "" && r.Body != nil {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err == nil {
			sql = strings.TrimSpace(string(body))
		}
	}
	if sql == "" {
		http.Error(w, "missing query: pass ?q=SQL or a request body", http.StatusBadRequest)
		return
	}
	res, tr, err := s.Engine.TraceSQL(sql)
	if err != nil {
		// An execution failure still carries a trace (parse/plan failures
		// do not): feed it to the slow-query log so operators see what the
		// query did before it errored.
		if tr != nil {
			s.logSlow(tr)
			s.recordQuery(tr)
		}
		writeQueryError(w, err)
		return
	}
	s.logSlow(tr)
	s.recordQuery(tr)
	if r.URL.Query().Get("trace") != "" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = tr.WriteJSON(w)
		return
	}
	cli.RenderResult(w, res, s.MaxRows)
}

// queryError is the structured /query error document. Kind gives clients
// a stable discriminator: "overflow" for Section VI-C aggregate overflow
// (the query is well-formed; the data exceeds int64 — retry at a larger
// quantity or narrower window), "corrupt" for stored data that failed
// its checksum or disagrees with its page header (the query is fine; the
// server's data is not), "bad_query" for everything else.
type queryError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// writeQueryError maps an engine error to a structured JSON response.
// Overflow is the client-actionable case: 422 (the request was valid,
// the aggregate is just not representable), never a 500 and never a
// silently wrapped value. Corruption is the server's fault: 500.
func writeQueryError(w http.ResponseWriter, err error) {
	qe := queryError{Error: err.Error(), Kind: "bad_query"}
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, engine.ErrOverflow):
		qe.Kind = "overflow"
		status = http.StatusUnprocessableEntity
	case errors.Is(err, storage.ErrCorrupt):
		qe.Kind = "corrupt"
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(qe)
}

// slowMax resolves the configured slow-ring bound: 0 means the
// default, negative means retain nothing (counting still happens).
func (s *Server) slowMax() int {
	if s.SlowMax == 0 {
		return defaultSlowMax
	}
	if s.SlowMax < 0 {
		return 0
	}
	return s.SlowMax
}

// logSlow counts the query as slow, retains the trace in the bounded
// in-memory ring (evicting — and counting — the oldest entry when
// full), and emits the trace as one JSON line when a log sink is
// configured. Lines are written whole under logMu, so concurrent slow
// queries never interleave mid-line; the same lock guards the
// slow-query counters so SlowStats is consistent with the log even
// when SlowLog is nil.
func (s *Server) logSlow(tr *engine.Trace) {
	if s.SlowThreshold < 0 || time.Duration(tr.ElapsedNs) < s.SlowThreshold {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.slowCount++
	s.lastSlowNs = tr.ElapsedNs
	if max := s.slowMax(); max > 0 {
		if len(s.slowRing) < max {
			s.slowRing = append(s.slowRing, tr)
		} else {
			s.slowRing[s.slowHead] = tr
			s.slowHead = (s.slowHead + 1) % max
			s.slowDropped++
			obs.ServeSlowDropped.Inc()
		}
	}
	if s.SlowLog != nil {
		_ = tr.WriteJSON(s.SlowLog)
	}
}

// SlowStats reports how many queries crossed the slow threshold and
// the wall time of the most recent one (0 when none have).
func (s *Server) SlowStats() (count, lastNs int64) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.slowCount, s.lastSlowNs
}

// SlowEntries returns the retained slow-query traces, oldest first.
// The returned slice is a copy; the traces themselves are shared (a
// trace is immutable once finished).
func (s *Server) SlowEntries() []*engine.Trace {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	out := make([]*engine.Trace, 0, len(s.slowRing))
	out = append(out, s.slowRing[s.slowHead:]...)
	out = append(out, s.slowRing[:s.slowHead]...)
	return out
}

// SlowDropped reports how many slow-query traces the bounded ring has
// evicted.
func (s *Server) SlowDropped() int64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.slowDropped
}

// recordQuery adds the finished query to the bounded recent-query ring
// that feeds the /debug/windows top-N view. Every traced /query run is
// recorded regardless of the slow threshold.
func (s *Server) recordQuery(tr *engine.Trace) {
	sum := QuerySummary{
		TraceID:   tr.TraceID,
		Query:     tr.Query,
		ElapsedNs: tr.ElapsedNs,
		AtUnixNs:  time.Now().UnixNano(),
	}
	if tr.Resources != nil {
		sum.CPUNs = tr.Resources.CPUNanos
	}
	s.recMu.Lock()
	defer s.recMu.Unlock()
	if len(s.recent) < recentCap {
		s.recent = append(s.recent, sum)
	} else {
		s.recent[s.recHead] = sum
		s.recHead = (s.recHead + 1) % recentCap
	}
}

// TopQueries returns the n recent queries that consumed the most
// worker CPU (ties broken by wall time), most expensive first.
func (s *Server) TopQueries(n int) []QuerySummary {
	s.recMu.Lock()
	out := make([]QuerySummary, len(s.recent))
	copy(out, s.recent)
	s.recMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPUNs != out[j].CPUNs {
			return out[i].CPUNs > out[j].CPUNs
		}
		return out[i].ElapsedNs > out[j].ElapsedNs
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ServeIngest accepts transport connections on l, ingesting frames into
// the server's store until the listener closes. Each connection is one
// device session; a corrupt frame terminates its session only.
func (s *Server) ServeIngest(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			_, _ = transport.Receive(conn, s.Store)
		}()
	}
}

// promName converts a dotted obs metric name to a Prometheus series
// name: etsqp_ prefix, dots to underscores.
func promName(name string) string {
	return "etsqp_" + strings.ReplaceAll(name, ".", "_")
}

// promFloat formats a bucket bound the way Prometheus text exposition
// expects floats.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// openMetricsContentType is the content type negotiated for the
// exemplar-bearing exposition.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics exposition format. Parameters (version, q-weights) are
// ignored: offering the media type at all is taken as the opt-in, which
// matches how Prometheus negotiates its scrape format.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(mediaType), "application/openmetrics-text") {
			return true
		}
	}
	return false
}

// promExemplar renders an OpenMetrics exemplar suffix for a bucket
// line: " # {trace_id=\"...\"} value timestamp" with the timestamp in
// seconds.
func promExemplar(e obs.Exemplar) string {
	return fmt.Sprintf(" # {trace_id=%q} %d %s",
		e.TraceID, e.Value,
		strconv.FormatFloat(float64(e.UnixNanos)/1e9, 'f', 3, 64))
}

// metricFamily is one exposition family, assembled before writing so
// the output can be sorted by series name regardless of registration
// order.
type metricFamily struct {
	name string // prometheus series name
	help string
	kind string // "counter", "gauge", or "histogram"
	val  int64  // counter/gauge value
	hist obs.HistogramSnapshot
	ex   map[int]obs.Exemplar // histogram bucket exemplars
}

// WriteMetrics writes every obs counter, gauge, and histogram in the
// classic Prometheus text exposition format (version 0.0.4), families
// sorted by series name. Counters and timers expose as counter series;
// gauges (sampled from runtime/metrics just before capture) as gauge
// series; histograms as cumulative _bucket{le=...} series over their
// non-empty power-of-two buckets plus the mandatory le="+Inf" bucket,
// and _sum/_count series. Exemplars are omitted — they are not valid in
// this format; scrapers that want them negotiate WriteOpenMetrics.
func WriteMetrics(w io.Writer) error {
	return writeMetrics(w, false)
}

// WriteOpenMetrics writes the same registry in OpenMetrics 1.0 syntax:
// counter samples carry the mandated _total suffix, a bucket whose
// histogram holds an exemplar (the most recent traced observation
// landing in it) carries an exemplar suffix with the trace ID — so a
// scrape links a latency bucket to a resolvable slow-query-log entry —
// and the exposition ends with the required "# EOF" trailer.
func WriteOpenMetrics(w io.Writer) error {
	return writeMetrics(w, true)
}

func writeMetrics(w io.Writer, openMetrics bool) error {
	obs.SampleRuntime()
	var fams []metricFamily
	snap := obs.Capture()
	for _, m := range obs.Metrics() {
		fams = append(fams, metricFamily{
			name: promName(m.Name), help: m.Help, kind: "counter", val: snap[m.Name],
		})
	}
	gsnap := obs.CaptureGauges()
	for _, g := range obs.Gauges() {
		fams = append(fams, metricFamily{
			name: promName(g.Name), help: g.Help, kind: "gauge", val: gsnap[g.Name],
		})
	}
	helps := obs.Histograms()
	exemplars := obs.CaptureExemplars()
	for i, hs := range obs.CaptureHistograms() {
		fams = append(fams, metricFamily{
			name: promName(hs.Name), help: helps[i].Help, kind: "histogram",
			hist: hs, ex: exemplars[i].ByBucket,
		})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		if f.kind != "histogram" {
			sample := f.name
			if openMetrics && f.kind == "counter" {
				// OpenMetrics mandates the _total suffix on counter samples
				// (the family name in TYPE/HELP stays bare).
				sample += "_total"
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", sample, f.val); err != nil {
				return err
			}
			continue
		}
		var cum int64
		// The top bucket's bound is +Inf, already covered by the
		// mandatory trailing le="+Inf" line — emitting it here too would
		// duplicate the sample.
		for b := 0; b < obs.HistBuckets-1; b++ {
			if f.hist.Buckets[b] == 0 {
				continue
			}
			cum += f.hist.Buckets[b]
			suffix := ""
			if openMetrics {
				if e, ok := f.ex[b]; ok {
					suffix = promExemplar(e)
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n",
				f.name, promFloat(obs.BucketUpperBound(b)), cum, suffix); err != nil {
				return err
			}
		}
		suffix := ""
		if openMetrics {
			if e, ok := f.ex[obs.HistBuckets-1]; ok {
				suffix = promExemplar(e)
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n%s_sum %d\n%s_count %d\n",
			f.name, f.hist.Count, suffix, f.name, f.hist.Sum, f.name, f.hist.Count); err != nil {
			return err
		}
	}
	if openMetrics {
		if _, err := io.WriteString(w, "# EOF\n"); err != nil {
			return err
		}
	}
	return nil
}

// histVar is the JSON summary of one histogram in the /debug/vars dump.
type histVar struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// WriteVars writes the whole obs registry as one JSON object — the
// /debug/vars-style surface. Counter and gauge names map to their values;
// histogram names map to {count, sum, p50, p90, p99} objects. Keys are
// the dotted metric names, sorted (encoding/json sorts map keys), so
// the document layout is stable.
func WriteVars(w io.Writer) error {
	obs.SampleRuntime()
	vars := make(map[string]any)
	for name, v := range obs.Capture() {
		vars[name] = v
	}
	for name, v := range obs.CaptureGauges() {
		vars[name] = v
	}
	for _, hs := range obs.CaptureHistograms() {
		vars[hs.Name] = histVar{
			Count: hs.Count, Sum: hs.Sum,
			P50: hs.Quantile(0.50), P90: hs.Quantile(0.90), P99: hs.Quantile(0.99),
		}
	}
	out, err := json.MarshalIndent(vars, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(out); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

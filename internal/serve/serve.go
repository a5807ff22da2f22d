// Package serve is the live observability surface of the engine: an
// HTTP server exposing the obs registry as Prometheus text exposition
// (/metrics), rolling-window rates and a top-query list as JSON
// (/debug/windows, rendered in a terminal by RunTop), the stdlib pprof
// profiling handlers, and a /query endpoint that executes SQL with
// tracing on and emits a span-tree JSON line to the slow-query log for
// any query over the configured threshold. An optional TCP listener
// ingests transport frames into the served store, so a running server
// is a complete device-to-console loop: devices ship encoded pages
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
	// SlowMax caps the slow-query traces retained in memory; when the
	// ring is full the oldest entry is dropped and counted (obs
	// serve.slow_dropped). Zero selects defaultSlowMax; negative retains
	// none.
	SlowMax int
	// Windows, when non-nil, is the rolling-window sampler backing
	// /debug/windows. The caller owns its lifecycle
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
//	/metrics          Prometheus text exposition (0.0.4) of every obs metric
//	/debug/windows    rolling-window rates, quantiles and top queries (JSON)
//	/debug/pprof/...  stdlib profiling endpoints
//	/query?q=SQL      execute a statement with tracing on
//	/healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// One format whatever Accept asks for: Prometheus scrapes 0.0.4
		// text even when it prefers OpenMetrics.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/windows", s.handleWindows)
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

// metricFamily is one exposition family, assembled before writing so
// the output can be sorted by series name regardless of registration
// order.
type metricFamily struct {
	name string // prometheus series name
	help string
	kind string // "counter", "gauge", or "histogram"
	val  int64  // counter/gauge value
	hist obs.HistogramSnapshot
}

// WriteMetrics writes every obs counter, gauge, and histogram in the
// Prometheus text exposition format (version 0.0.4), families sorted by
// series name. Counters and timers expose as counter series; gauges
// (sampled from runtime/metrics just before capture) as gauge series;
// histograms as cumulative _bucket{le=...} series over their non-empty
// power-of-two buckets plus the mandatory le="+Inf" bucket, and
// _sum/_count series.
func WriteMetrics(w io.Writer) error {
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
	for i, hs := range obs.CaptureHistograms() {
		fams = append(fams, metricFamily{
			name: promName(hs.Name), help: helps[i].Help, kind: "histogram", hist: hs,
		})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		if f.kind != "histogram" {
			if _, err := fmt.Fprintf(w, "%s %d\n", f.name, f.val); err != nil {
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
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
				f.name, promFloat(obs.BucketUpperBound(b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			f.name, f.hist.Count, f.name, f.hist.Sum, f.name, f.hist.Count); err != nil {
			return err
		}
	}
	return nil
}

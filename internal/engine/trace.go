package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxTraceSlices bounds the per-slice events a trace retains, so tracing
// a query over a huge store cannot grow memory without bound. The count
// of executed slices is always exact (Stats.SlicesRun); only the
// per-slice detail is capped.
const maxTraceSlices = 256

// Span is one node of a query's span tree. Durations are nanoseconds;
// stage spans are summed across workers, so on parallel queries a stage
// span can exceed its parent's wall time (the same convention as the
// engine.time.* metrics). Field order is part of the JSON schema pinned
// by TestTraceJSONGolden — append, never reorder.
type Span struct {
	Name     string `json:"name"`
	DurNs    int64  `json:"dur_ns"`
	Children []Span `json:"children,omitempty"`
}

// SliceEvent records one executed pipeline job: its row window, whether
// it aggregated on encoded form, and — for TS2DIFF pages — the packing
// width.
type SliceEvent struct {
	StartRow int   `json:"start_row"`
	EndRow   int   `json:"end_row"`
	Rows     int   `json:"rows"`
	Fused    bool  `json:"fused"`
	Width    uint  `json:"width,omitempty"`
	DurNs    int64 `json:"dur_ns"`
	packed   bool  // a TS2DIFF page: Width is its packing width, 0 included
}

// Trace is the per-query span tree the engine assembles when tracing is
// requested: parse → plan → prune → io → decode → filter → agg →
// window → merge stage spans under a query root, plus per-slice events. A nil *Trace
// disables tracing entirely; the execution hot paths only ever perform a
// nil check, so tracing off costs nothing and allocates nothing
// (TestParallelExecutorAllocs budgets are unchanged).
type Trace struct {
	Query     string       `json:"query"`
	Mode      string       `json:"mode"`
	Workers   int          `json:"workers"`
	ElapsedNs int64        `json:"elapsed_ns"`
	Root      Span         `json:"span"`
	Slices    []SliceEvent `json:"slices,omitempty"`
	// SlicesTotal counts every executed job, including those beyond the
	// retained-event cap.
	SlicesTotal int64 `json:"slices_total"`
	// Error records why the query produced no result (empty on success),
	// so a slow-query log line for a failed query — e.g. a Section VI-C
	// aggregate overflow — still explains itself. Appended to the schema;
	// omitted when empty, so successful-trace goldens are unchanged.
	Error string `json:"error,omitempty"`
	// TraceID is a process-unique identifier carried by the slow-query
	// log line and the /debug/windows top-query list, so a query seen in
	// one can be found in the other. Appended to the schema.
	TraceID string `json:"trace_id,omitempty"`
	// Resources attributes shared-pool and storage consumption to this
	// query (nil when execution recorded none). Appended to the schema.
	Resources *TraceResources `json:"resources,omitempty"`

	parseNs int64
	planNs  int64
	mu      sync.Mutex
}

// TraceResources is the per-query resource-attribution block of a trace:
// what the query cost the shared pool and the storage layer, as opposed
// to how long its stages took. CPUNanos sums per-morsel wall time across
// participants, so it exceeds ElapsedNs on parallel queries by design.
type TraceResources struct {
	CPUNanos       int64 `json:"cpu_ns"`
	Morsels        int64 `json:"morsels"`
	PagesRead      int64 `json:"pages_read"`
	BytesScanned   int64 `json:"bytes_scanned"`
	ValuesDecoded  int64 `json:"values_decoded"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	ArenaHighWater int64 `json:"arena_high_bytes"`
}

// traceIDSeq and traceIDSalt make trace IDs process-unique without
// coordination: a per-process random-ish salt (start time) mixed with an
// atomic sequence through a splitmix64-style multiplier.
var (
	traceIDSeq  atomic.Uint64 //etsqp:atomic
	traceIDSalt = uint64(time.Now().UnixNano())
)

// newTraceID mints a 16-hex-character process-unique trace ID.
func newTraceID() string {
	x := traceIDSalt + traceIDSeq.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return fmt.Sprintf("%016x", x)
}

// NewTrace starts a trace for one query, minting its trace ID.
func NewTrace(query string, mode string, workers int) *Trace {
	return &Trace{Query: query, Mode: mode, Workers: workers, TraceID: newTraceID()}
}

// addSlice records a per-slice event, dropping detail beyond the cap.
// Tracing is opt-in diagnostics (trace == nil on the plain query path),
// so the slice append is acceptable here.
//
//etsqp:coldpath
func (t *Trace) addSlice(ev SliceEvent) {
	t.mu.Lock()
	if len(t.Slices) < maxTraceSlices {
		t.Slices = append(t.Slices, ev)
	}
	t.mu.Unlock()
}

// finish assembles the span tree from the observed stage times. The
// "other" span absorbs the wall time no stage accounts for (scheduling,
// result assembly), so with a single worker the children of the query
// root sum to exactly the traced wall time.
func (t *Trace) finish(st Stats, elapsed time.Duration) {
	t.ElapsedNs = int64(elapsed)
	t.SlicesTotal = st.SlicesRun
	stages := []Span{
		{Name: "parse", DurNs: t.parseNs},
		{Name: "plan", DurNs: t.planNs},
		{Name: "prune", DurNs: st.PruneNanos},
		{Name: "io", DurNs: st.IONanos},
		{Name: "decode", DurNs: st.DecodeNanos},
		{Name: "filter", DurNs: st.FilterNanos},
		{Name: "agg", DurNs: st.AggNanos},
		{Name: "window", DurNs: st.WindowNanos},
		{Name: "merge", DurNs: st.MergeNanos},
	}
	var accounted int64
	for _, s := range stages[2:] { // parse/plan happened before the clock
		accounted += s.DurNs
	}
	other := t.ElapsedNs - accounted
	if other < 0 {
		other = 0 // parallel stage sums can exceed wall time
	}
	stages = append(stages, Span{Name: "other", DurNs: other})
	t.Root = Span{Name: "query", DurNs: t.ElapsedNs, Children: stages}
	if st.CPUNanos != 0 || st.MorselsRun != 0 || st.PagesRead != 0 ||
		st.BytesScanned != 0 || st.ValuesDecoded != 0 ||
		st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Resources = &TraceResources{
			CPUNanos:       st.CPUNanos,
			Morsels:        st.MorselsRun,
			PagesRead:      st.PagesRead,
			BytesScanned:   st.BytesScanned,
			ValuesDecoded:  st.ValuesDecoded,
			CacheHits:      st.CacheHits,
			CacheMisses:    st.CacheMisses,
			ArenaHighWater: st.ArenaHighWater,
		}
	}
}

// fail finishes a trace for a query that errored mid-execution: the span
// tree is assembled from whatever stages completed (stage counters are
// unavailable — the result that carries them never materialized) and the
// error is recorded for the slow-query log. A nil trace is a no-op.
func (t *Trace) fail(err error, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.Error = err.Error()
	t.finish(Stats{}, elapsed)
}

// StageSum returns the total duration of the query root's children —
// the quantity that must stay within 10% of the traced wall time on
// single-worker runs (parse and plan ran before the traced window, so
// they are excluded).
func (t *Trace) StageSum() int64 {
	var sum int64
	for _, s := range t.Root.Children {
		if s.Name == "parse" || s.Name == "plan" {
			continue
		}
		sum += s.DurNs
	}
	return sum
}

// WriteJSON writes the trace as one JSON document. Field order follows
// the struct declarations, so the output is byte-stable for a given
// trace (the schema golden relies on this).
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// String renders the span tree as indented text — the representation
// EXPLAIN ANALYZE appends under its counters block.
func (t *Trace) String() string {
	var b strings.Builder
	b.WriteString("  trace:\n")
	writeSpan(&b, &t.Root, 2)
	if t.SlicesTotal > 0 {
		fmt.Fprintf(&b, "    slices: %d run, %d recorded\n", t.SlicesTotal, len(t.Slices))
	}
	for _, ev := range t.Slices {
		fmt.Fprintf(&b, "      slice [%d, %d) rows=%d fused=%v", ev.StartRow, ev.EndRow, ev.Rows, ev.Fused)
		if ev.packed {
			fmt.Fprintf(&b, " width=%d", ev.Width)
		}
		fmt.Fprintf(&b, " dur=%v\n", time.Duration(ev.DurNs))
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %v\n", s.Name, time.Duration(s.DurNs))
	for i := range s.Children {
		writeSpan(b, &s.Children[i], depth+1)
	}
}

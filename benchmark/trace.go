package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded by
// the benchmark around its calls into each layer; the program itself
// is not instrumented by this package.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count"` // rows, points or bytes the span covered
}

// tracer appends spans to a preallocated slice; slots are claimed with
// one atomic add, so client goroutines never contend on a lock. A nil
// tracer records nothing: the untraced run pays one nil check per call.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	next     atomic.Int32
	dropped  atomic.Int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, maxSpans)}
}

const noSpan = int32(-1)

// begin opens a span and returns its id (noSpan when the buffer is
// full or tracing is off).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	id := t.next.Add(1) - 1
	if int(id) >= len(t.spans) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[id] = span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: int64(time.Since(t.epoch))}
	return id
}

func (t *tracer) end(id int32, count int64) {
	if t == nil || id == noSpan {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.epoch))
	t.spans[id].Count = count
}

// recorded returns the finished spans. Call it only after every
// goroutine that records has stopped.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// spanMean is the mean duration and mean self time (duration minus
// the time its children cover) of the spans sharing one name.
type spanMean struct{ dur, self float64 }

// means summarises the finished spans by name.
func (t *tracer) means() map[string]spanMean {
	spans := t.recorded()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.EndNs > 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	type sum struct{ n, dur, self float64 }
	sums := map[string]*sum{}
	for _, s := range spans {
		if s.EndNs == 0 {
			continue
		}
		acc := sums[s.Name]
		if acc == nil {
			acc = &sum{}
			sums[s.Name] = acc
		}
		d := s.EndNs - s.StartNs
		acc.n++
		acc.dur += float64(d)
		acc.self += float64(d - child[s.ID])
	}
	out := make(map[string]spanMean, len(sums))
	for name, acc := range sums {
		out[name] = spanMean{acc.dur / acc.n, acc.self / acc.n}
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+t.workload+".json"))
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{t.workload, t.dropped.Load(), t.recorded()}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

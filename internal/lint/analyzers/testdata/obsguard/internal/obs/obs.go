// Package obs mirrors the real observability layer's shape so the
// obsguard fixture can exercise both rules: storage-field access outside
// the atomic helpers, and ungated mutations in hot paths.
package obs

import "sync/atomic"

var enabled atomic.Bool

// Enabled reports whether counters are collected.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter when collection is enabled.
func (c *Counter) Add(n int64) {
	if !Enabled() {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Timer accumulates nanoseconds.
type Timer struct{ c Counter }

// AddNanos folds an elapsed duration into the timer.
func (t *Timer) AddNanos(n int64) { t.c.Add(n) }

// Gauge mirrors the real last-value metric.
type Gauge struct{ v atomic.Int64 }

// Set records the current value when collection is enabled.
func (g *Gauge) Set(v int64) {
	if !Enabled() {
		return
	}
	g.v.Store(v)
}

// Histogram mirrors the real power-of-two-bucket distribution metric.
type Histogram struct {
	buckets [4]atomic.Int64
	sum     atomic.Int64
	name    string
}

// Observe records one value when collection is enabled.
func (h *Histogram) Observe(v int64) {
	if !Enabled() {
		return
	}
	h.buckets[0].Add(1)
	h.sum.Add(v)
}

// registry mirrors the real package's declaration-order metric list.
var registry []string

func newCounter(name, help string) *Counter {
	registry = append(registry, name)
	return new(Counter)
}

func newGauge(name, help string) *Gauge {
	registry = append(registry, name)
	return new(Gauge)
}

func newHistogram(name, help string) *Histogram {
	registry = append(registry, name)
	return &Histogram{name: name}
}

// Ops is the package's example counter.
var Ops Counter

// Capture may read counter storage directly: it is a sanctioned helper.
func Capture() int64 {
	return Ops.v.Load()
}

// CaptureHistograms is likewise sanctioned for histogram storage.
func CaptureHistograms() int64 {
	return Latency.sum.Load()
}

// CaptureGauges is sanctioned for gauge storage.
func CaptureGauges() int64 {
	return Goroutines.v.Load()
}

// Zero bypasses the helpers; rule 1 flags the storage access.
func Zero() {
	Ops.v.Store(0) // want `direct access to counter storage outside the atomic helpers; use Add/Inc/Load`
}

// Drain bypasses the helpers; rule 1 flags histogram storage too.
func Drain(h *Histogram) int64 {
	return h.sum.Load() // want `direct access to histogram storage outside the atomic helpers; use Observe/Snapshot`
}

// Peek bypasses the gauge helpers; rule 1 flags gauge storage too.
func Peek(g *Gauge) int64 {
	return g.v.Load() // want `direct access to counter storage outside the atomic helpers; use Add/Inc/Load`
}

package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of power-of-two histogram buckets. Bucket 0
// counts observations of value 0 (and clamped negatives); bucket b for
// b >= 1 counts values in [2^(b-1), 2^b). 64 buckets cover the full
// non-negative int64 range, so no observation is ever dropped.
const HistBuckets = 64

// Histogram is a lock-free distribution metric: a fixed array of
// power-of-two buckets plus a sum, all atomic int64s behind the same
// package-wide enable gate as Counter. An Observe is bucket selection
// (one bits.Len64) plus two atomic adds — no locks, no allocation — so
// per-query stage latencies and per-page decode costs can be recorded
// even on instrumented paths that run millions of times.
//
// Quantiles are estimated from the bucket counts with linear
// interpolation inside the winning bucket, so the relative error of a
// reported quantile is bounded by the bucket's width: at most a factor
// of two, and in practice far less for smooth latency distributions
// (docs/OBSERVABILITY.md quantifies the bounds).
type Histogram struct {
	buckets [HistBuckets]atomic.Int64 //etsqp:atomic
	sum     atomic.Int64              //etsqp:atomic
	name    string
	help    string
}

// histBucket maps a value to its bucket index. Negative values clamp to
// bucket 0: stage timers can only produce non-negative nanoseconds, but
// a clamp is cheaper and safer than a branchy error path.
//
//etsqp:inline
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value when collection is enabled. It never
// allocates; when disabled it is a single atomic load and branch.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.buckets[histBucket(v)].Add(1)
	h.sum.Add(v)
}

// ObserveN records n observations of the same value when collection is
// enabled — the bulk form runtime-histogram importers use to fold
// per-bucket count deltas into the registry without n separate calls.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 || !enabled.Load() {
		return
	}
	h.buckets[histBucket(v)].Add(n)
	h.sum.Add(v * n)
}

// Name returns the registered dotted metric name.
func (h *Histogram) Name() string { return h.name }

// Help returns the one-line metric description.
func (h *Histogram) Help() string { return h.help }

// Sum returns the sum of recorded observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot copies the histogram's current state. Buckets are read one by
// one, so a snapshot taken during concurrent writes is a slightly torn
// but always well-formed view (every bucket value did occur).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Name: h.name}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// reset zeroes the histogram.
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sum.Store(0)
}

// HistogramSnapshot is a point-in-time copy of one histogram. Count is
// derived from the bucket sum so quantile math is internally consistent
// even when the snapshot races concurrent writers.
type HistogramSnapshot struct {
	Name    string
	Buckets [HistBuckets]int64
	Sum     int64
	Count   int64
}

// BucketUpperBound returns the exclusive upper bound of bucket i: 1 for
// bucket 0 (zero values), 2^i for the rest, +Inf for the last bucket
// (whose nominal bound would overflow int64).
func BucketUpperBound(i int) float64 {
	if i <= 0 {
		return 1
	}
	if i >= HistBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, interpolating linearly within the winning bucket. The estimate
// always lies within the winning bucket's [lo, hi) range — p100 of
// all-value-3 observations reports a value in [2, 4), never 4. An empty
// histogram reports 0.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if seen+fc < rank {
			seen += fc
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = math.Ldexp(1, i-1)
		}
		hi := BucketUpperBound(i)
		if math.IsInf(hi, 1) {
			return lo // top bucket: report its lower bound
		}
		// Clamp the in-bucket rank to fc-0.5 so frac < 1 and the estimate
		// stays inside [lo, hi): when the rank lands exactly on a bucket
		// boundary, interpolating to frac = 1 would report the exclusive
		// upper bound — a value no observation in the bucket can have.
		r := rank - seen
		if r > fc-0.5 {
			r = fc - 0.5
		}
		return lo + (hi-lo)*(r/fc)
	}
	return 0
}

// Delta returns this snapshot minus prev, bucket by bucket — the
// distribution of observations between two snapshots.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Name: s.Name}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
		d.Count += d.Buckets[i]
	}
	d.Sum = s.Sum - prev.Sum
	return d
}

// histRegistry holds every histogram in declaration order. Like the
// counter registry it is fully built by package init, so reads need no
// lock.
var histRegistry []*Histogram

func newHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	histRegistry = append(histRegistry, h)
	return h
}

// CaptureHistograms copies the current state of every registered
// histogram, in declaration order.
func CaptureHistograms() []HistogramSnapshot {
	out := make([]HistogramSnapshot, len(histRegistry))
	for i, h := range histRegistry {
		out[i] = h.Snapshot()
	}
	return out
}

// Histograms lists every registered histogram (name and help) in
// declaration order, for documentation and exporter surfaces.
func Histograms() []struct{ Name, Help string } {
	out := make([]struct{ Name, Help string }, len(histRegistry))
	for i, h := range histRegistry {
		out[i] = struct{ Name, Help string }{h.name, h.help}
	}
	return out
}

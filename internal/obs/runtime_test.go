package obs

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// pauseHistCount reads the current go.hist.gc_pause_ns observation
// count.
func pauseHistCount() int64 {
	return GoHistGCPause.Snapshot().Count
}

// TestFeedPauseHistogramBaselinesFirstSample checks the first runtime
// pause sample (and any bucket-layout change) only records the
// baseline: the process's cumulative pre-enable pause history must not
// be replayed into the histogram as if it just happened.
func TestFeedPauseHistogramBaselinesFirstSample(t *testing.T) {
	Reset()
	Enable()
	defer func() {
		Disable()
		Reset()
	}()
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	lastPauseCounts = nil

	h := &metrics.Float64Histogram{
		Counts:  []uint64{5, 2},
		Buckets: []float64{0, 1e-6, 1e-3},
	}
	feedPauseHistogram(h)
	if got := pauseHistCount(); got != 0 {
		t.Fatalf("first sample folded %d pre-existing pauses into the histogram, want 0", got)
	}

	// Two new pauses in the first bucket: only the delta is observed.
	h.Counts = []uint64{7, 2}
	feedPauseHistogram(h)
	if got := pauseHistCount(); got != 2 {
		t.Fatalf("second sample observed %d pauses, want the delta 2", got)
	}

	// A bucket-layout change re-baselines instead of replaying counts.
	wide := &metrics.Float64Histogram{
		Counts:  []uint64{9, 3, 1},
		Buckets: []float64{0, 1e-7, 1e-6, 1e-3},
	}
	feedPauseHistogram(wide)
	if got := pauseHistCount(); got != 2 {
		t.Fatalf("layout change observed %d extra pauses, want none (count stays 2)", got)
	}
	wide.Counts = []uint64{10, 3, 1}
	feedPauseHistogram(wide)
	if got := pauseHistCount(); got != 3 {
		t.Fatalf("post-rebaseline delta observed count %d, want 3", got)
	}
}

// TestGCCyclesIsCounter checks go.gc_cycles registers as a counter (so
// PromQL rate() works and Window deltas include it), not a gauge.
func TestGCCyclesIsCounter(t *testing.T) {
	for _, g := range Gauges() {
		if g.Name == "go.gc_cycles" {
			t.Fatal("go.gc_cycles is registered as a gauge; it is monotone and must be a counter")
		}
	}
	for _, m := range Metrics() {
		if m.Name == "go.gc_cycles" {
			return
		}
	}
	t.Fatal("go.gc_cycles is not in the counter registry")
}

// TestGCCyclesAdvancesByDelta checks SampleRuntime feeds the cycle
// counter with per-sample deltas: a sample right after Reset must not
// re-add the process's whole cumulative cycle count.
func TestGCCyclesAdvancesByDelta(t *testing.T) {
	Reset()
	Enable()
	defer func() {
		Disable()
		Reset()
	}()
	runtime.GC()
	runtime.GC()
	runtimeMu.Lock()
	lastGCCycles = 0
	runtimeMu.Unlock()
	SampleRuntime()
	cumulative := GoGCCycles.Load()
	if cumulative < 2 {
		t.Fatalf("go.gc_cycles = %d after two forced GCs from a zero baseline, want >= 2", cumulative)
	}
	Reset()
	SampleRuntime()
	if got := GoGCCycles.Load(); got >= cumulative {
		t.Errorf("go.gc_cycles = %d after Reset+sample, want a small delta, not the cumulative %d", got, cumulative)
	}
}

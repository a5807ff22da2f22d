package obs

import (
	"math"
	"testing"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, tc := range cases {
		if got := histBucket(tc.v); got != tc.want {
			t.Errorf("histBucket(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Bucket b (b >= 1) must cover [2^(b-1), 2^b); the exported bounds
	// must agree with the bucketing function.
	for b := 1; b < HistBuckets-1; b++ {
		lo := int64(1) << (b - 1)
		hi := int64(1)<<b - 1
		if histBucket(lo) != b || histBucket(hi) != b {
			t.Fatalf("bucket %d does not cover [%d, %d]", b, lo, hi)
		}
		if ub := BucketUpperBound(b); ub != math.Ldexp(1, b) {
			t.Fatalf("BucketUpperBound(%d) = %v", b, ub)
		}
	}
	if !math.IsInf(BucketUpperBound(HistBuckets-1), 1) {
		t.Fatal("top bucket upper bound must be +Inf")
	}
}

func TestHistogramDisabledDropsObservations(t *testing.T) {
	withClean(t, func() {
		EngineHistQuery.Observe(1000)
		if n := EngineHistQuery.Snapshot().Count; n != 0 {
			t.Fatalf("disabled histogram moved: count=%d", n)
		}
	})
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	withClean(t, func() {
		Enable()
		// 100 observations uniform in [0, 1000): quantiles must land
		// within the power-of-two bucket error bound (a factor of two).
		for i := int64(0); i < 100; i++ {
			EngineHistQuery.Observe(i * 10)
		}
		s := EngineHistQuery.Snapshot()
		if s.Count != 100 {
			t.Fatalf("count = %d, want 100", s.Count)
		}
		if want := int64(10 * 99 * 100 / 2); s.Sum != want {
			t.Fatalf("sum = %d, want %d", s.Sum, want)
		}
		p50 := s.Quantile(0.50)
		if p50 < 256 || p50 > 1024 {
			t.Errorf("p50 = %v, want within a bucket of ~500", p50)
		}
		p99 := s.Quantile(0.99)
		if p99 < 512 || p99 > 1024 {
			t.Errorf("p99 = %v, want within a bucket of ~990", p99)
		}
		if q0 := s.Quantile(0); q0 < 0 || q0 > 1 {
			t.Errorf("q0 = %v, want ~0", q0)
		}
	})
}

// TestHistogramQuantileStaysInBucket pins the boundary behavior: when
// the rank lands exactly on a bucket boundary the estimate must stay
// inside the winning bucket's [lo, hi) range, not report the exclusive
// upper bound.
func TestHistogramQuantileStaysInBucket(t *testing.T) {
	withClean(t, func() {
		Enable()
		// All observations are 3: every quantile lives in bucket [2, 4).
		for i := 0; i < 10; i++ {
			EngineHistQuery.Observe(3)
		}
		s := EngineHistQuery.Snapshot()
		for _, q := range []float64{0, 0.5, 0.9, 1} {
			if v := s.Quantile(q); v < 2 || v >= 4 {
				t.Errorf("Quantile(%v) = %v, want within [2, 4)", q, v)
			}
		}
		// A boundary rank between two occupied buckets must not overshoot
		// the lower bucket either: 5 obs in [2,4), 5 in [4,8) puts the
		// p50 rank exactly on the bucket edge.
		Reset()
		for i := 0; i < 5; i++ {
			EngineHistQuery.Observe(3)
			EngineHistQuery.Observe(5)
		}
		s = EngineHistQuery.Snapshot()
		if v := s.Quantile(0.5); v < 2 || v >= 4 {
			t.Errorf("boundary p50 = %v, want within the lower bucket [2, 4)", v)
		}
	})
}

func TestHistogramDelta(t *testing.T) {
	withClean(t, func() {
		Enable()
		EngineHistDecode.Observe(100)
		before := EngineHistDecode.Snapshot()
		EngineHistDecode.Observe(5000)
		EngineHistDecode.Observe(5001)
		d := EngineHistDecode.Snapshot().Delta(before)
		if d.Count != 2 {
			t.Fatalf("delta count = %d, want 2", d.Count)
		}
		if d.Sum != 10001 {
			t.Fatalf("delta sum = %d, want 10001", d.Sum)
		}
		if d.Buckets[histBucket(100)] != 0 {
			t.Fatal("delta kept pre-snapshot observation")
		}
	})
}

func TestHistogramResetViaReset(t *testing.T) {
	withClean(t, func() {
		Enable()
		TransportHistFrameBytes.Observe(64)
		Reset()
		if TransportHistFrameBytes.Snapshot().Count != 0 || TransportHistFrameBytes.Sum() != 0 {
			t.Fatal("Reset did not zero histogram")
		}
	})
}

func TestHistogramNamesRegisteredAndHelpful(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Metrics() {
		seen[m.Name] = true
	}
	for _, h := range Histograms() {
		if seen[h.Name] {
			t.Fatalf("histogram %q collides with a counter name", h.Name)
		}
		if seen["h:"+h.Name] {
			t.Fatalf("duplicate histogram name %q", h.Name)
		}
		seen["h:"+h.Name] = true
		if h.Help == "" {
			t.Fatalf("histogram %q has no help text", h.Name)
		}
	}
}

// TestHistogramHotPathAllocs extends the zero-allocation acceptance
// check to Observe, enabled or not.
func TestHistogramHotPathAllocs(t *testing.T) {
	withClean(t, func() {
		for _, on := range []bool{false, true} {
			if on {
				Enable()
			} else {
				Disable()
			}
			if n := testing.AllocsPerRun(1000, func() {
				EngineHistPageDecode.Observe(4096)
				EngineHistSliceRows.Observe(1024)
			}); n != 0 {
				t.Fatalf("enabled=%v: Observe allocates %.1f/op", on, n)
			}
		}
	})
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	Enable()
	defer func() {
		Disable()
		Reset()
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EngineHistPageDecode.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EngineHistPageDecode.Observe(int64(i))
	}
}

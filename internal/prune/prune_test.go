package prune

import (
	"math"
	"math/rand"
	"testing"

	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/storage"
)

func TestBoundsFromBlock(t *testing.T) {
	// Deltas 4,6,5,6 → base 4, width 2 → bounds [4,7].
	b, err := ts2diff.Encode([]int64{0, 4, 10, 15, 21}, ts2diff.Order1)
	if err != nil {
		t.Fatal(err)
	}
	bd := BoundsFromBlock(b)
	if bd.Dm != 4 || bd.DM != 7 {
		t.Fatalf("bounds = %+v", bd)
	}
	if lo, hi, ok := bd.Reach(0, 4); !ok || lo != 0 || hi != 28 {
		t.Fatalf("Reach(0, 4) = [%d, %d] %v, want [0, 28] true", lo, hi, ok)
	}

	// Headers that bound no value: an order-2 header bounds second
	// differences, and at widths 63 and 64 a decoded delta can wrap. The
	// order-2 page is the Sine shape, whose first differences change
	// sign: its second-difference bounds would stop a scan for A < 0 at
	// the crest while the wave still comes back down.
	wave := make([]int64, 2000)
	for i := range wave {
		wave[i] = int64(10000 * math.Sin(2*math.Pi*float64(i)/997))
	}
	edge := func(width uint) []int64 {
		if width == 64 {
			return []int64{0, math.MinInt64, 0, math.MaxInt64}
		}
		return []int64{0, 1 << 62, 1 << 62, 1<<62 - 1} // deltas span 2^62 + 1
	}
	for _, c := range []struct {
		name  string
		vals  []int64
		order ts2diff.Order
		width uint
	}{
		{"order 2, Sine", wave, ts2diff.Order2, 0},
		{"order 2, constant", []int64{5, 5, 5, 5}, ts2diff.Order2, 0},
		{"order 1, width 63", edge(63), ts2diff.Order1, 63},
		{"order 1, width 64", edge(64), ts2diff.Order1, 64},
	} {
		b, err := ts2diff.Encode(c.vals, c.order)
		if err != nil {
			t.Fatal(err)
		}
		if c.width != 0 && b.Width != c.width {
			t.Fatalf("%s: packed at width %d", c.name, b.Width)
		}
		bd := BoundsFromBlock(b)
		for _, steps := range []uint64{0, 1, uint64(b.Count - 1)} {
			if lo, hi, ok := bd.Reach(c.vals[0], steps); ok {
				t.Errorf("%s: Reach(%d steps) = [%d, %d], want no bound", c.name, steps, lo, hi)
			}
		}
		for k := range c.vals {
			for _, r := range [][2]int64{{1, 1}, {math.MinInt64, -1}, {1, math.MaxInt64}, {c.vals[k] + 1, math.MaxInt64}} {
				if bd.StopValue(c.vals[k], k, b.Count, r[0], r[1]) {
					t.Fatalf("%s: StopValue fired at row %d for [%d, %d]", c.name, k, r[0], r[1])
				}
			}
		}
	}
}

// pruneIsSound: whenever a stop rule fires at position k, no element after
// k satisfies the filter.
func TestStopValueSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100) + 2
		vals := make([]int64, n)
		cur := int64(rng.Intn(100))
		for i := range vals {
			vals[i] = cur
			cur += rng.Int63n(20) - 5
		}
		b, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		bd := BoundsFromBlock(b)
		c1 := vals[0] + rng.Int63n(100) - 50
		c2 := c1 + rng.Int63n(100)
		for k := 0; k < n-1; k++ {
			if bd.StopValue(vals[k], k, n, c1, c2) {
				for j := k + 1; j < n; j++ {
					if vals[j] > c1 && vals[j] < c2 {
						t.Fatalf("trial %d: pruned at %d but vals[%d]=%d in (%d,%d)",
							trial, k, j, vals[j], c1, c2)
					}
				}
				break
			}
		}
	}
}

func TestStopValueFires(t *testing.T) {
	// Monotone slow growth: once far below c1 with bounded deltas, the
	// rule must fire.
	bd := Bounds{Dm: 0, DM: 3}
	// 10 steps of at most +3 cannot reach c1 = 1000 from a[k] = 0.
	if !bd.StopValueLow(0, 0, 11, 1000) {
		t.Fatal("StopValueLow must fire")
	}
	// But can reach 20.
	if bd.StopValueLow(0, 0, 11, 20) {
		t.Fatal("StopValueLow must not fire when reachable")
	}
	// High side with positive Dm: values only grow.
	bd = Bounds{Dm: 1, DM: 5}
	if !bd.StopValueHigh(100, 0, 11, 50) {
		t.Fatal("StopValueHigh must fire when values can only grow")
	}
	// High side with negative Dm: values may come back down.
	bd = Bounds{Dm: -10, DM: 5}
	if bd.StopValueHigh(100, 0, 11, 50) {
		t.Fatal("StopValueHigh must not fire when deltas can be negative")
	}
	// No steps left → always prune.
	if !bd.StopValue(0, 10, 11, 0, 100) {
		t.Fatal("no remaining steps must prune")
	}
	// Walks whose reach leaves int64 wrap and can land anywhere: neither
	// rule may fire, however the wrapped products compare. 3072 steps of
	// up to 3·2^61 past 0 (a page alternating 2^61 and 0), and deltas of
	// -2 from MinInt64+1, which wrap to MaxInt64.
	bd = Bounds{Dm: -1 << 61, DM: 3<<61 - 1}
	if bd.StopValueLow(0, 1023, 4096, 2) || bd.StopValueHigh(1<<61, 1023, 4096, 1) {
		t.Fatal("a stop rule fired on a walk that wraps")
	}
	bd = Bounds{Dm: -2, DM: 0}
	if bd.StopValueLow(math.MinInt64+1, 0, 3, 0) {
		t.Fatal("StopValueLow fired below a walk that wraps to MaxInt64")
	}
	bd = Bounds{Dm: 0, DM: 2}
	if bd.StopValueHigh(math.MaxInt64-1, 0, 3, 0) {
		t.Fatal("StopValueHigh fired above a walk that wraps to MinInt64")
	}
}

func TestSkipPage(t *testing.T) {
	h := storage.PageHeader{StartTime: 100, EndTime: 200, MinValue: -5, MaxValue: 50}
	if !SkipPageByValue(h, 51, 100) || !SkipPageByValue(h, -100, -6) {
		t.Fatal("non-overlapping value range must skip")
	}
	if SkipPageByValue(h, 0, 10) {
		t.Fatal("overlapping value range must not skip")
	}
}

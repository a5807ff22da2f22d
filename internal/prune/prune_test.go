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

func TestPositionsForConstantInterval(t *testing.T) {
	cases := []struct {
		first, interval int64
		n               int
		t1, t2          int64
		lo, hi          int
	}{
		{0, 10, 100, 25, 55, 3, 6},   // 30,40,50
		{0, 10, 100, 0, 990, 0, 100}, // everything
		{0, 10, 100, -50, -1, 0, 0},  // before start
		{0, 10, 10, 95, 200, 0, 0},   // after end
		{0, 10, 100, 30, 30, 3, 4},   // exact hit
		{0, 10, 100, 31, 39, 0, 0},   // between points
		{100, 10, 5, 0, 1000, 0, 5},  // full range
		{100, 0, 5, 100, 100, 0, 5},  // degenerate interval, match
		{100, 0, 5, 0, 50, 0, 0},     // degenerate interval, no match
		{0, 10, 100, 55, 25, 0, 0},   // inverted range
	}
	for i, c := range cases {
		lo, hi := PositionsForConstantInterval(c.first, c.interval, c.n, c.t1, c.t2)
		if lo != c.lo || hi != c.hi {
			t.Errorf("case %d: got [%d,%d) want [%d,%d)", i, lo, hi, c.lo, c.hi)
		}
	}
}

func TestPositionsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		first := rng.Int63n(1000)
		interval := rng.Int63n(50) + 1
		n := rng.Intn(200) + 1
		t1 := rng.Int63n(first + interval*int64(n) + 100)
		t2 := t1 + rng.Int63n(interval*int64(n)+1)
		lo, hi := PositionsForConstantInterval(first, interval, n, t1, t2)
		wantLo, wantHi := 0, 0
		found := false
		for i := 0; i < n; i++ {
			ts := first + int64(i)*interval
			if ts >= t1 && ts <= t2 {
				if !found {
					wantLo = i
					found = true
				}
				wantHi = i + 1
			}
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("trial %d: got [%d,%d) want [%d,%d)", trial, lo, hi, wantLo, wantHi)
		}
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

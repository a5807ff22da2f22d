package fusion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
)

// deltaRuns is vals as the Delta-Repeat pairs an RLBE page holds: the
// first value and the runs of equal consecutive deltas.
func deltaRuns(vals []int64) (first int64, pairs []encoding.DeltaRun) {
	if len(vals) == 0 {
		return 0, nil
	}
	for i := 1; i < len(vals); i++ {
		d := vals[i] - vals[i-1]
		if n := len(pairs); n > 0 && pairs[n-1].Delta == d {
			pairs[n-1].Count++
		} else {
			pairs = append(pairs, encoding.DeltaRun{Delta: d, Count: 1})
		}
	}
	return vals[0], pairs
}

// refSum decodes and sums — the unfused reference.
func refSum(first int64, pairs []encoding.DeltaRun) int64 {
	var s int64
	for _, v := range encoding.DeltaRLEDecode(first, pairs) {
		s += v
	}
	return s
}

func randomPairsSeries(seed int64, maxRun int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(500) + 1
	vals := make([]int64, n)
	cur := rng.Int63n(1000)
	for i := 0; i < n; {
		d := rng.Int63n(41) - 20
		run := rng.Intn(maxRun) + 1
		for k := 0; k < run && i < n; k++ {
			vals[i] = cur
			cur += d
			i++
		}
	}
	return vals
}

func TestSumMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		vals := randomPairsSeries(seed, 30)
		first, pairs := deltaRuns(vals)
		got, err := Sum(first, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSum(first, pairs); got != want {
			t.Fatalf("seed %d: got %d want %d", seed, got, want)
		}
	}
}

func TestSumLongRunIsO1(t *testing.T) {
	// A billion-point run costs one pair — the fused sum must still be
	// exact (closed form, no iteration).
	pairs := []encoding.DeltaRun{{Delta: 3, Count: 1_000_000_000}}
	got, err := Sum(10, pairs)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1_000_000_000)
	want := 10*(n+1) + 3*n*(n+1)/2
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestSumOverflow(t *testing.T) {
	pairs := []encoding.DeltaRun{{Delta: math.MaxInt64 / 2, Count: 1000}}
	if _, err := Sum(math.MaxInt64/2, pairs); err != ErrOverflow {
		t.Fatalf("got %v want ErrOverflow", err)
	}
}

// TestSumRange checks the one-segment case of SumRangeSegments: a plain
// row range.
func TestSumRange(t *testing.T) {
	vals := randomPairsSeries(42, 10)
	first, pairs := deltaRuns(vals)
	for from := 0; from <= len(vals); from += 7 {
		for to := from + 5; to <= len(vals); to += 5 {
			var got [1]int64
			if err := SumRangeSegments(first, pairs, []int{from, to}, got[:]); err != nil {
				t.Fatal(err)
			}
			var want int64
			for _, v := range vals[from:to] {
				want += v
			}
			if got[0] != want {
				t.Fatalf("[%d,%d): got %d want %d", from, to, got[0], want)
			}
		}
	}
}

func TestSumSquaresAndVariance(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		vals := randomPairsSeries(seed, 20)
		first, pairs := deltaRuns(vals)
		got, err := SumSquares(first, pairs)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, v := range vals {
			want += v * v
		}
		if got != want {
			t.Fatalf("seed %d: SumSquares got %d want %d", seed, got, want)
		}
		v, err := Variance(first, pairs)
		if err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		for _, x := range vals {
			mean += float64(x)
		}
		mean /= float64(len(vals))
		wantVar := 0.0
		for _, x := range vals {
			wantVar += (float64(x) - mean) * (float64(x) - mean)
		}
		wantVar /= float64(len(vals))
		if math.Abs(v-wantVar) > 1e-6*(1+wantVar) {
			t.Fatalf("seed %d: Variance got %f want %f", seed, v, wantVar)
		}
	}
}

func TestSumBlockMatchesDecode(t *testing.T) {
	f := func(raw []int64) bool {
		for i := range raw {
			raw[i] %= 1 << 30
		}
		b, err := ts2diff.Encode(raw, ts2diff.Order1)
		if err != nil {
			return false
		}
		got, err := SumBlock(b)
		if err != nil {
			return false
		}
		vals, _ := b.Decode()
		var want int64
		for _, v := range vals {
			want += v
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSumBlockLargeVectorPath(t *testing.T) {
	// Enough values that whole plan blocks are exercised.
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 10000)
	cur := int64(0)
	for i := range vals {
		vals[i] = cur
		cur += rng.Int63n(1000)
	}
	b, _ := ts2diff.Encode(vals, ts2diff.Order1)
	got, err := SumBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range vals {
		want += v
	}
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

// TestSumBlockRange checks the one-segment case of SumBlockSegments: a
// plain row range.
func TestSumBlockRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 2000)
	cur := int64(100)
	for i := range vals {
		vals[i] = cur
		cur += rng.Int63n(50) - 10
	}
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		b, err := ts2diff.Encode(vals, order)
		if err != nil {
			t.Fatal(err)
		}
		for _, rg := range [][2]int{{0, 2000}, {0, 1}, {1999, 2000}, {500, 1500}, {7, 8}} {
			var got [1]int64
			if err := SumBlockSegments(b, rg[:], got[:]); err != nil {
				t.Fatalf("order %d range %v: %v", order, rg, err)
			}
			var want int64
			for _, v := range vals[rg[0]:rg[1]] {
				want += v
			}
			if got[0] != want {
				t.Fatalf("order %d range %v: got %d want %d", order, rg, got[0], want)
			}
		}
	}
}

func TestSumBlockOrder2Delegates(t *testing.T) {
	ts := make([]int64, 500)
	for i := range ts {
		ts[i] = int64(i) * 1000
	}
	b, _ := ts2diff.Encode(ts, ts2diff.Order2)
	got, err := SumBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range ts {
		want += v
	}
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func BenchmarkFusedSumVsDecode(b *testing.B) {
	vals := make([]int64, 100000)
	cur := int64(0)
	for i := range vals {
		vals[i] = cur
		cur += int64(i%7) * 3
	}
	first, pairs := deltaRuns(vals)
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := Sum(first, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-then-sum", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			var s int64
			for _, v := range encoding.DeltaRLEDecode(first, pairs) {
				s += v
			}
			_ = s
		}
	})
}

func TestSumBlockOrder2ClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000) + 1
		ts := make([]int64, n)
		cur := int64(rng.Intn(100000))
		interval := int64(rng.Intn(100) + 1)
		for i := range ts {
			ts[i] = cur
			interval += rng.Int63n(9) - 4
			cur += interval
		}
		b, err := ts2diff.Encode(ts, ts2diff.Order2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SumBlock(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var want int64
		for _, v := range ts {
			want += v
		}
		if got != want {
			t.Fatalf("trial %d (n=%d): got %d want %d", trial, n, got, want)
		}
	}
}

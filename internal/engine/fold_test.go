package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// foldByValue is foldRange's reference: the range test and addValue,
// value by value.
func foldByValue(p *partialAgg, vals []int64, c1, c2 int64) {
	for _, v := range vals {
		if v >= c1 && v <= c2 {
			p.addValue(v)
		}
	}
}

// TestFoldRangeParity: the chunk fold must leave partialAgg exactly as
// the per-value addValue loop does — sum, count, min, max, seen and the
// sticky overflow flag always, sumSq when VAR is planned — over chunks
// that hold the int64 extremes, ranges that end at them, running sums
// within one value of ±2^63 (so only the checked redo can set the flag
// at the right row, or leave it clear), empty selections and inverted
// ranges, at lengths on both sides of a chunk.
func TestFoldRangeParity(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	pick := func() int64 {
		switch r.Intn(4) {
		case 0:
			return edges[r.Intn(len(edges))]
		case 1:
			return r.Int63n(2001) - 1000
		case 2:
			return int64(r.Uint64()) // anywhere in int64
		default:
			return (r.Int63n(2001) - 1000) << 52 // a few of these wrap a sum
		}
	}
	starts := []partialAgg{
		{},
		{sum: math.MaxInt64, count: 1, min: math.MaxInt64, max: math.MaxInt64, seen: true},
		{sum: math.MaxInt64 - 3, count: 7, min: -5, max: 1 << 61, seen: true},
		{sum: math.MinInt64, count: 1, min: math.MinInt64, max: math.MinInt64, seen: true},
		{sum: math.MinInt64 + 2, count: 3, min: math.MinInt64 + 2, max: 0, seen: true},
		{sum: 12, count: math.MaxInt64 - 2, min: 3, max: 4, seen: true},
		{sum: -1, count: 2, min: -1, max: 0, seen: true, overflow: true},
	}
	for iter := 0; iter < 4000; iter++ {
		n := []int{0, 1, 2, 63, 700, pruneChunk - 1, pruneChunk, pruneChunk + 1, 2*pruneChunk + 17}[r.Intn(9)]
		vals := make([]int64, n)
		small := r.Intn(3) == 0 // chunks the magnitude bound admits
		for i := range vals {
			if vals[i] = pick(); small {
				vals[i] = r.Int63n(1<<20) - 1<<19
			}
		}
		c1, c2 := pick(), pick()
		if r.Intn(8) != 0 && c1 > c2 {
			c1, c2 = c2, c1 // keep a share of inverted (empty) ranges
		}
		if r.Intn(4) == 0 {
			c1, c2 = math.MinInt64, math.MaxInt64
		}
		start := starts[r.Intn(len(starts))]
		if small && r.Intn(2) == 0 {
			// One value away from the edge: whether the chunk overflows
			// turns on the sign of its first selected values.
			start.sum = []int64{math.MaxInt64, math.MinInt64}[r.Intn(2)] - int64(r.Intn(3)) + 1
		}
		for _, sq := range []bool{false, true} {
			got, want := start, start
			got.foldRange(vals, c1, c2, sq)
			foldByValue(&want, vals, c1, c2)
			if !sq {
				got.sumSq, want.sumSq = 0, 0 // not kept unless VAR is planned
			}
			if got != want && !(math.IsNaN(got.sumSq) && math.IsNaN(want.sumSq)) {
				t.Fatalf("iter %d: %d values in [%d, %d] from %+v (sq=%v):\nfoldRange %+v\naddValue  %+v", iter, n, c1, c2, start, sq, got, want)
			}
		}
	}
}

// TestFoldRangeAllocs: the fold and its kernel work in registers.
func TestFoldRangeAllocs(t *testing.T) {
	vals := make([]int64, 3*pruneChunk+5)
	for i := range vals {
		vals[i] = int64(i%97) << uint(i%3*30) // the top third forces the checked redo
	}
	var p partialAgg
	if n := testing.AllocsPerRun(50, func() {
		p.foldRange(vals, 5, 1<<62, true)
	}); n != 0 {
		t.Fatalf("foldRange allocates %.1f/op", n)
	}
	if !p.overflow {
		t.Fatal("the redo path was not reached: running sum never overflowed")
	}
}

// BenchmarkFoldRange times the chunk fold against the per-value loop at
// a selectivity branches mispredict on (half) and one they predict.
func BenchmarkFoldRange(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]int64, pruneChunk)
	for i := range vals {
		vals[i] = r.Int63n(2000)
	}
	for _, c1 := range []int64{1000, 1900} {
		b.Run(fmt.Sprintf("chunk/c1=%d", c1), func(b *testing.B) {
			var p partialAgg
			for i := 0; i < b.N; i++ {
				p = partialAgg{}
				p.foldRange(vals, c1, 1<<62, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
		b.Run(fmt.Sprintf("addValue/c1=%d", c1), func(b *testing.B) {
			var p partialAgg
			for i := 0; i < b.N; i++ {
				p = partialAgg{}
				foldByValue(&p, vals, c1, 1<<62)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
	}
}

// TestFoldOverflowByQuery: queries whose answer turns on the order the
// selected values are added in, so only the checked redo behind the
// chunk fold gets it right, in every mode, whole pages and forced
// slices. In the first series a prefix of the selected values leaves
// int64 and the rest brings the total back: the wrapped chunk sum is a
// perfectly plausible number, and SUM must still be the Section VI-C
// error while COUNT and MIN answer. In the second the values alternate
// in sign at the same magnitude: the chunk's magnitude bound cannot
// rule overflow out, the redo finds none, and SUM must be exact.
func TestFoldOverflowByQuery(t *testing.T) {
	const n, big = 3000, int64(1) << 61
	ts := make([]int64, n)
	wraps, alternates := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 100
		switch {
		case i < 4:
			wraps[i] = big // the fourth makes the running sum 2^63
		case i < 8:
			wraps[i] = -big
		default:
			wraps[i] = int64(i % 7) // 0 is filtered out below
		}
		alternates[i] = big - int64(i%5)
		if i%2 == 1 {
			alternates[i] = -alternates[i]
		}
	}
	var altSum, altCount int64
	for i := range ts {
		if alternates[i] >= -big {
			altSum += alternates[i] // never leaves int64: partial sums stay within ±2^61
			altCount++
		}
	}
	for _, mode := range allModes {
		for _, slices := range []int{0, 3} {
			name := fmt.Sprintf("%v/slices=%d", mode, slices)
			e := New(storeFor(t, mode, ts, wraps, 1024), mode)
			e.Workers, e.ForceSlices = 2, slices
			if _, err := e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A), MIN(A) FROM ts WHERE A >= %d AND A != 0", -big)); !errors.Is(err, ErrOverflow) {
				t.Errorf("%s: SUM over a prefix that leaves int64 (!= path): error %v, want ErrOverflow", name, err)
			}
			if _, err := e.ExecuteSQL("SELECT SUM(A), MIN(A) FROM ts WHERE A >= 1"); !errors.Is(err, ErrOverflow) {
				t.Errorf("%s: SUM over a prefix that leaves int64: error %v, want ErrOverflow", name, err)
			}
			res, err := e.ExecuteSQL(fmt.Sprintf("SELECT COUNT(A), MIN(A) FROM ts WHERE A >= %d", -big))
			if err != nil {
				t.Fatalf("%s: COUNT, MIN beside an overflowed sum: %v", name, err)
			}
			if got := res.Aggregates["MIN(A)"]; got != float64(-big) {
				t.Errorf("%s: MIN %v, want %d", name, got, -big)
			}

			e = New(storeFor(t, mode, ts, alternates, 1024), mode)
			e.Workers, e.ForceSlices = 2, slices
			res, err = e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A), COUNT(A), MAX(A) FROM ts WHERE A >= %d", -big))
			if err != nil {
				t.Fatalf("%s: SUM of alternating ±2^61: %v", name, err)
			}
			if s, c := res.Aggregates["SUM(A)"], res.Aggregates["COUNT(A)"]; s != float64(altSum) || c != float64(altCount) {
				t.Errorf("%s: SUM %v COUNT %v, want %d and %d", name, s, c, altSum, altCount)
			}
		}
	}
}

// TestFoldVarianceWithFilter: VAR over a value range is the one query
// shape that needs the chunk fold's row-order sumSq pass (plan.needSq);
// every mode must agree with a plain loop to float rounding.
func TestFoldVarianceWithFilter(t *testing.T) {
	ts, vals := testData(9000, 31, true)
	const c1, c2 = 480, 530
	var n, sum, sumSq float64
	for _, v := range vals {
		if v >= c1 && v <= c2 {
			n++
			sum += float64(v)
			sumSq += float64(v) * float64(v)
		}
	}
	want := sumSq/n - (sum/n)*(sum/n)
	for _, mode := range allModes {
		e := New(storeFor(t, mode, ts, vals, 2048), mode)
		res, err := e.ExecuteSQL(fmt.Sprintf("SELECT VAR(A), COUNT(A) FROM ts WHERE A >= %d AND A <= %d", c1, c2))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Aggregates["VAR(A)"]; math.Abs(got-want) > 1e-6*(1+want) || res.Aggregates["COUNT(A)"] != n {
			t.Errorf("%v: VAR %v COUNT %v, want %v and %v", mode, got, res.Aggregates["COUNT(A)"], want, n)
		}
	}
}

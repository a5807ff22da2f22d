package fusion

import (
	"fmt"
	"math/rand"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
)

// randomCuts builds a strictly increasing partition of [0, n] with at
// most k interior cuts (segments may start past 0 and end past n).
func randomCuts(rng *rand.Rand, n, k int) []int {
	set := map[int]bool{}
	for i := 0; i < k; i++ {
		set[rng.Intn(n+n/2+2)] = true
	}
	cuts := make([]int, 0, len(set)+1)
	for c := range set {
		cuts = append(cuts, c)
	}
	for i := range cuts {
		for j := i + 1; j < len(cuts); j++ {
			if cuts[j] < cuts[i] {
				cuts[i], cuts[j] = cuts[j], cuts[i]
			}
		}
	}
	if len(cuts) < 2 {
		cuts = []int{0, n + 1}
	}
	return cuts
}

// checkSegments compares kernel segment sums against decode-then-add:
// the plain sum of decoded[cuts[i]:cuts[i+1]], cuts clamped to the rows
// that exist. A range is one segment, so the range entry points share
// the kernels under test and cannot serve as the oracle.
func checkSegments(t *testing.T, name string, decoded []int64, cuts []int, sums []int64) {
	t.Helper()
	for i, got := range sums {
		from, to := min(cuts[i], len(decoded)), min(cuts[i+1], len(decoded))
		var want int64
		for _, v := range decoded[from:to] {
			want += v
		}
		if got != want {
			t.Fatalf("%s seg [%d,%d): got %d want %d", name, cuts[i], cuts[i+1], got, want)
		}
	}
}

func TestSumRangeSegmentsMatchesDecode(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first, pairs := encoding.DeltaRLEEncode(randomPairsSeries(seed, 12))
		decoded := encoding.DeltaRLEDecode(first, pairs)
		for _, k := range []int{2, 9} { // one segment (a plain range), then window cuts
			cuts := randomCuts(rng, len(decoded), k)
			sums := make([]int64, len(cuts)-1)
			if err := SumRangeSegments(first, pairs, cuts, sums); err != nil {
				t.Fatal(err)
			}
			checkSegments(t, fmt.Sprintf("seed %d", seed), decoded, cuts, sums)
		}
	}
}

func TestSumRangeSegmentsValidation(t *testing.T) {
	first, pairs := encoding.DeltaRLEEncode([]int64{1, 2, 3})
	if err := SumRangeSegments(first, pairs, []int{0, 0}, make([]int64, 1)); err == nil {
		t.Fatal("non-increasing cuts must fail")
	}
	if err := SumRangeSegments(first, pairs, []int{-1, 2}, make([]int64, 1)); err == nil {
		t.Fatal("negative cut must fail")
	}
	if err := SumRangeSegments(first, pairs, []int{0, 1, 2}, make([]int64, 1)); err == nil {
		t.Fatal("cuts/sums mismatch must fail")
	}
	// Empty segment list is a no-op.
	if err := SumRangeSegments(first, pairs, []int{3}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumBlockSegmentsMatchesDecode(t *testing.T) {
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed + int64(order)*1000))
			n := rng.Intn(700) + 1
			vals := make([]int64, n)
			cur := rng.Int63n(10000)
			step := rng.Int63n(20) - 10
			for i := range vals {
				vals[i] = cur
				step += rng.Int63n(7) - 3
				cur += step
			}
			b, err := ts2diff.Encode(vals, order)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := b.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 8} {
				cuts := randomCuts(rng, n, k)
				sums := make([]int64, len(cuts)-1)
				if err := SumBlockSegments(b, cuts, sums); err != nil {
					t.Fatal(err)
				}
				checkSegments(t, fmt.Sprintf("order %v seed %d", order, seed), decoded, cuts, sums)
			}
		}
	}
}

func TestSumBlockSegmentsWholeBlockMatchesSumBlock(t *testing.T) {
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i*i - 40*i)
	}
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		b, err := ts2diff.Encode(vals, order)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]int64, 1)
		if err := SumBlockSegments(b, []int{0, len(vals)}, sums); err != nil {
			t.Fatal(err)
		}
		want, err := SumBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if sums[0] != want {
			t.Fatalf("order %v: got %d want %d", order, sums[0], want)
		}
	}
}

// BenchmarkSumRangeSegments times the Delta-Repeat segment walk over a
// 4 096-row page of plateaus (runs of 1…256 equal values), as one
// segment and cut into 1 000-row windows.
func BenchmarkSumRangeSegments(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 4096)
	for i, v := 0, int64(50_000); i < len(vals); v += int64(rng.Intn(81) - 40) {
		for l := 1 + rng.Intn(256); l > 0 && i < len(vals); l, i = l-1, i+1 {
			vals[i] = v
		}
	}
	first, pairs := encoding.DeltaRLEEncode(vals)
	for _, width := range []int{len(vals), 1000} {
		var cuts []int
		for c := 0; c < len(vals); c += width {
			cuts = append(cuts, c)
		}
		cuts = append(cuts, len(vals))
		sums := make([]int64, len(cuts)-1)
		b.Run(fmt.Sprintf("segments=%d", len(sums)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := SumRangeSegments(first, pairs, cuts, sums); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
		})
	}
}

package fusion

import (
	"fmt"
	"testing"

	"etsqp/internal/encoding/ts2diff"
)

// TestFusedKernelAllocs is the runtime cross-check of the hotpathalloc
// analyzer for the fusion package: the fused aggregation kernels must
// not allocate. SumBlock covers both orders — the order-2 path streams
// second-order deltas through a stack chunk rather than materializing
// them — and SumBlockSegments over one cut pair is the plain-range shape
// of the segment walk, stack cut arrays included.
func TestFusedKernelAllocs(t *testing.T) {
	for _, tc := range []struct {
		order ts2diff.Order
		width uint
	}{
		{ts2diff.Order1, 4},
		{ts2diff.Order1, 10},
		{ts2diff.Order1, 30},
		{ts2diff.Order2, 10},
	} {
		vals := allocSeries(4096, tc.width, tc.order)
		blk, err := ts2diff.Encode(vals, tc.order)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SumBlock(blk); err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("order=%d/width=%d", tc.order, tc.width), func(t *testing.T) {
			if n := testing.AllocsPerRun(100, func() {
				if _, err := SumBlock(blk); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("SumBlock allocates %.1f/op", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				cuts, sum := [2]int{8, blk.Count - 5}, [1]int64{}
				if err := SumBlockSegments(blk, cuts[:], sum[:]); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("one-segment SumBlockSegments allocates %.1f/op", n)
			}
		})
	}
}

// TestPairKernelAllocs checks the DeltaRun-pair aggregates.
func TestPairKernelAllocs(t *testing.T) {
	vals := randomPairsSeries(7, 30)
	first, pairs := deltaRuns(vals)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Sum(first, pairs); err != nil {
			t.Fatal(err)
		}
		cuts, sum := [2]int{3, len(vals) - 3}, [1]int64{}
		if err := SumRangeSegments(first, pairs, cuts[:], sum[:]); err != nil {
			t.Fatal(err)
		}
		_ = Count(pairs)
		if _, err := SumSquares(first, pairs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("pair kernels allocate %.1f/op", n)
	}
}

// allocSeries builds a series whose deltas (order 1) or second-order
// deltas (order 2) span the requested packing width.
func allocSeries(n int, w uint, order ts2diff.Order) []int64 {
	vals := make([]int64, n)
	cur := int64(0)
	step := int64(1)
	maxDelta := int64(1)<<w - 1
	for i := range vals {
		vals[i] = cur
		if order == ts2diff.Order1 {
			cur += int64(i*2654435761) & maxDelta
		} else {
			step += int64(i) & maxDelta
			cur += step
		}
	}
	return vals
}

package pipeline

import (
	"fmt"
	"testing"

	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/obs"
)

// TestUnpackLoopAllocs is the runtime cross-check of the hotpathalloc
// analyzer: decoding into caller-provided memory must not allocate —
// across widths on both sides of a 32-bit lane and the degenerate width
// 0, with observability both off and on, whole pages at once and a
// constructed scanner fed 1024-row chunks (the engine's pruned-scan
// shape; width 8 keeps every chunk byte-aligned, the others do not),
// and a by-value scanner Reset from page to page.
func TestUnpackLoopAllocs(t *testing.T) {
	defer obs.Disable()
	for _, w := range []uint{0, 4, 10, 16, MaxNarrowWidth, 30} {
		vals := seriesWithWidthB(4096, w)
		blk, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, blk.Count)
		if err := DecodeBlockInto(out, blk); err != nil {
			t.Fatal(err)
		}
		for _, on := range []bool{false, true} {
			if on {
				obs.Enable()
			} else {
				obs.Disable()
			}
			t.Run(fmt.Sprintf("width=%d/obs=%v", w, on), func(t *testing.T) {
				if n := testing.AllocsPerRun(100, func() {
					if err := DecodeBlockInto(out, blk); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Fatalf("DecodeBlockInto allocates %.1f/op", n)
				}
			})
		}
	}
	obs.Disable()
	chunk := make([]int64, 1024)
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		for _, w := range []uint{0, 4, 8, 12, 30} {
			// 101 pages of four chunks: AllocsPerRun warms up once, and
			// every measured Next call produces a full chunk.
			blk, err := ts2diff.Encode(seriesWithWidthB(101*4*len(chunk), w), order)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewRangeScanner(blk, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("scanner/order=%d/width=%d", order, w), func(t *testing.T) {
				if n := testing.AllocsPerRun(100, func() {
					for i := 0; i < 4; i++ {
						if k, err := s.Next(chunk); err != nil || k != len(chunk) {
							t.Fatalf("Next at row %d: %d rows, %v", s.Row(), k, err)
						}
					}
				}); n != 0 {
					t.Fatalf("RangeScanner.Next allocates %.1f per four chunks", n)
				}
			})
			// The engine's shape: one scanner held by value, Reset onto
			// page after page at a mid-page row (prefix sum, or the
			// order-2 replay), with the block on the caller's stack.
			t.Run(fmt.Sprintf("reset/order=%d/width=%d", order, w), func(t *testing.T) {
				var reused RangeScanner
				if n := testing.AllocsPerRun(100, func() {
					page := *blk
					if err := reused.Reset(&page, 1001); err != nil {
						t.Fatal(err)
					}
					if k, err := reused.Next(chunk); err != nil || k != len(chunk) {
						t.Fatalf("Next after Reset: %d rows, %v", k, err)
					}
				}); n != 0 {
					t.Fatalf("Reset + Next allocates %.1f/op", n)
				}
			})
		}
	}
}

// TestSumPackedAllocs checks the packed-sum kernel stays
// allocation-free.
func TestSumPackedAllocs(t *testing.T) {
	for _, w := range []uint{4, 10, MaxNarrowWidth, 30} {
		vals := seriesWithWidthB(4096, w)
		blk, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		m := blk.NumPacked()
		if n := testing.AllocsPerRun(100, func() {
			if _, err := SumPacked(blk.Packed, m, blk.Width); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("width=%d: SumPacked allocates %.1f/op", w, n)
		}
	}
}

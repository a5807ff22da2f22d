package pipeline

import (
	"fmt"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/simd"
)

// BenchmarkDecodeVector measures DecodeBlockInto against the scalar
// reference across packing widths — the per-width ablation behind
// Figure 12(e,f)'s shape.
func BenchmarkDecodeVector(b *testing.B) {
	for _, w := range []uint{4, 10, 16, 20, 25, 30} {
		vals := seriesWithWidthB(65536, w)
		blk, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]int64, blk.Count)
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodeBlockInto(out, blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeScalarRef is the serial baseline for the same widths.
func BenchmarkDecodeScalarRef(b *testing.B) {
	for _, w := range []uint{4, 10, 16, 20, 25, 30} {
		vals := seriesWithWidthB(65536, w)
		blk, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := blk.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNv is the Proposition 1 ablation: the Algorithm 1 reference's
// decode time as a function of the vector count n_v, holding the width
// fixed at 10 bits.
func BenchmarkNv(b *testing.B) {
	vals := seriesWithWidthB(65536, 10)
	blk, err := ts2diff.Encode(vals, ts2diff.Order1)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int64, blk.NumPacked())
	for _, nv := range []int{1, 2, 4, 8, 16} {
		forced := buildPlanWithNv(10, nv)
		b.Run(fmt.Sprintf("nv=%d", nv), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				algorithm1Accumulate(forced, out, blk.First, blk.Packed, blk.MinBase)
			}
		})
	}
}

func buildPlanWithNv(width uint, nv int) *Plan {
	p := buildPlan(width)
	if p.Nv == nv {
		return p
	}
	// Rebuild the tables for the forced vector count.
	forced := &Plan{Width: width, Nv: nv}
	forced.BlockElems = 8 * nv
	forced.BlockBytes = forced.BlockElems * int(width) / 8
	forced.NLoad = (forced.BlockBytes + 31) / 32
	forced.mask = p.mask
	for l := 0; l < 8; l++ {
		forced.ramp[l] = uint32(l * nv)
	}
	forced.gatherIdx = make([]*[32]int32, nv)
	forced.shift = make([]simd.U32x8, nv)
	for j := 0; j < nv; j++ {
		idx := new([32]int32)
		var shift simd.U32x8
		for l := 0; l < 8; l++ {
			e := l*nv + j
			startBit := e * int(width)
			fb := startBit / 8
			o := uint(startBit - fb*8)
			for bb := 0; bb < 4; bb++ {
				idx[l*4+bb] = int32(fb + 3 - bb)
			}
			shift[l] = 32 - uint32(o) - uint32(width)
		}
		forced.gatherIdx[j] = idx
		forced.shift[j] = shift
	}
	return forced
}

// BenchmarkFibonacciUnpack times variable-width decoding through the
// decoder every RLBE read runs.
func BenchmarkFibonacciUnpack(b *testing.B) {
	vals := make([]uint64, 65536)
	for i := range vals {
		vals[i] = uint64(i%1000) + 1
	}
	buf, err := encoding.FibonacciEncodeAll(vals)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(vals) * 8))
	for i := 0; i < b.N; i++ {
		if _, err := UnpackFibonacci(buf, len(vals)); err != nil {
			b.Fatal(err)
		}
	}
}

func seriesWithWidthB(n int, w uint) []int64 {
	vals := make([]int64, n)
	cur := int64(0)
	maxDelta := int64(1)<<w - 1
	for i := range vals {
		vals[i] = cur
		d := int64(i*2654435761) & maxDelta
		if i == 1 {
			d = maxDelta
		}
		cur += d
	}
	return vals
}

// BenchmarkJITCache measures the Section III-B plan cache under the
// Algorithm 1 reference: decoding with cached tables vs rebuilding the
// tables on every page.
func BenchmarkJITCache(b *testing.B) {
	vals := seriesWithWidthB(8192, 10)
	blk, _ := ts2diff.Encode(vals, ts2diff.Order1)
	out := make([]int64, blk.NumPacked())
	decode := func(b *testing.B) {
		p, err := PlanFor(10)
		if err != nil {
			b.Fatal(err)
		}
		algorithm1Accumulate(p, out, blk.First, blk.Packed, blk.MinBase)
	}
	b.Run("cached", func(b *testing.B) {
		decode(b) // warm
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			decode(b)
		}
	})
	b.Run("rebuilt", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			ResetPlanCache()
			decode(b)
		}
	})
	ResetPlanCache()
}

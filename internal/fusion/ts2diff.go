package fusion

import (
	"etsqp/internal/bitio"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/pipeline"
	"etsqp/internal/simd"
)

// SumBlock computes Σ values of a TS2DIFF order-1 block without Delta
// decoding (Example 2: the sum is a weighted combination of the packed
// deltas and the base). With v_i = first + i·minBase + P_i and
// P_i = Σ_{j<i} packed_j:
//
//	Σ v = n·first + minBase·n(n-1)/2 + Σ_i P_i
//
// The Σ P term is accumulated block-wise with the same partial-sum
// vectors the decoder would build — but nothing is materialized.
//
//etsqp:hotpath
//etsqp:rangecheck
func SumBlock(b *ts2diff.Block) (int64, error) {
	if b.Order != ts2diff.Order1 {
		return SumBlockOrder2(b)
	}
	n := int64(b.Count)
	if n == 0 {
		return 0, nil
	}
	m := b.NumPacked()
	total, ok := mulChecked(b.First, n)
	if !ok {
		return 0, ErrOverflow
	}
	tri, okT := triangleChecked(n)
	ramp, ok2 := mulChecked(b.MinBase, tri)
	total, ok3 := addChecked(total, ramp)
	if !okT || !ok2 || !ok3 {
		return 0, ErrOverflow
	}
	sumP, err := sumPrefixes(b.Packed, m, b.Width)
	if err != nil {
		return 0, err
	}
	total, ok = addChecked(total, sumP)
	if !ok {
		return 0, ErrOverflow
	}
	return total, nil
}

// sumPrefixes returns Σ_{i=1..m} P_i with P_i the inclusive prefix sums of
// the packed fields, vectorized over whole plan blocks.
//
//etsqp:bounds width [0, 64]
//etsqp:hotpath
//etsqp:rangecheck
func sumPrefixes(packed []byte, m int, width uint) (int64, error) {
	if m == 0 {
		return 0, nil
	}
	if width == 0 {
		return 0, nil // all packed fields are zero
	}
	var sumP, prefixBefore int64
	e := 0
	if width <= pipeline.MaxNarrowWidth {
		p, err := pipeline.PlanFor(width)
		if err != nil {
			return 0, err
		}
		var vecsArr [pipeline.MaxNv]simd.U32x8
		vecs := vecsArr[:p.Nv]
		for ; e+p.BlockElems <= m; e += p.BlockElems {
			window := packed[e*int(width)/8:]
			for j := 0; j < p.Nv; j++ {
				vecs[j] = p.UnpackVec(window, j)
			}
			for j := 1; j < p.Nv; j++ {
				vecs[j] = simd.Add32(vecs[j-1], vecs[j])
			}
			laneTot := vecs[p.Nv-1]
			lanePrefix := simd.ExclusivePrefixSum32(laneTot)
			var localP int64
			for j := 0; j < p.Nv; j++ {
				var okH bool
				localP, okH = addChecked(localP, int64(simd.HSum32(vecs[j])))
				if !okH {
					return 0, ErrOverflow
				}
			}
			// In range by the HSum32 return bound: Nv ≤ 16, Σ lanes < 2^35.
			lane := int64(p.Nv) * int64(simd.HSum32(lanePrefix))
			localP, okL := addChecked(localP, lane)
			blockTotal := int64(lanePrefix[simd.Lanes32-1]) + int64(laneTot[simd.Lanes32-1])
			inc, ok1 := mulChecked(prefixBefore, int64(p.BlockElems))
			s, ok2 := addChecked(inc, localP)
			var ok3 bool
			sumP, ok3 = addChecked(sumP, s)
			var ok4 bool
			prefixBefore, ok4 = addChecked(prefixBefore, blockTotal)
			if !(okL && ok1 && ok2 && ok3 && ok4) {
				return 0, ErrOverflow
			}
		}
	}
	if e < m {
		r := bitio.NewReader(packed)
		if err := r.Seek(e * int(width)); err != nil {
			return 0, err
		}
		prefix := prefixBefore
		for ; e < m; e++ {
			v, err := r.ReadBits(width)
			if err != nil {
				return 0, err
			}
			var okP bool
			prefix, okP = addChecked(prefix, int64(v))
			if !okP {
				return 0, ErrOverflow
			}
			var ok bool
			sumP, ok = addChecked(sumP, prefix)
			if !ok {
				return 0, ErrOverflow
			}
		}
	}
	return sumP, nil
}

// SumBlockRange computes Σ values over rows [from, to) of a TS2DIFF
// block without materializing decoded values: the one-segment case of
// SumBlockSegments.
func SumBlockRange(b *ts2diff.Block, from, to int) (int64, error) {
	if from < 0 {
		from = 0
	}
	if to <= from {
		return 0, nil
	}
	cuts, sum := [2]int{from, to}, [1]int64{}
	err := SumBlockSegments(b, cuts[:], sum[:])
	return sum[0], err
}

// SumBlockOrder2 computes Σ values of an order-2 TS2DIFF block without
// decoding — the two-level fusion: with second-order deltas dd_j,
//
//	v_i = first + i·d1 + Σ_{j<i} (i-1-j)·dd_j     (i >= 1)
//	Σ_{i=0..n-1} v_i = n·first + d1·n(n-1)/2 + Σ_j w_j·dd_j
//
// where w_j = Σ_{i>j+1} (i-1-j) = (n-2-j)(n-1-j)/2; a single pass over
// the packed fields evaluates the weighted sum.
//
//etsqp:hotpath
//etsqp:rangecheck
func SumBlockOrder2(b *ts2diff.Block) (int64, error) {
	if b.Order != ts2diff.Order2 {
		return 0, ErrOverflow // misuse guard; callers dispatch by order
	}
	n := int64(b.Count)
	if n == 0 {
		return 0, nil
	}
	total, ok := mulChecked(b.First, n)
	if !ok {
		return 0, ErrOverflow
	}
	if n == 1 {
		return total, nil
	}
	tri, okT := triangleChecked(n)
	ramp, ok1 := mulChecked(b.FirstDelta, tri)
	total, ok2 := addChecked(total, ramp)
	if !okT || !ok1 || !ok2 {
		return 0, ErrOverflow
	}
	m := b.NumPacked() // n-2 second-order deltas
	if m == 0 {
		return total, nil
	}
	// Weighted sum of dd_j with weight (n-2-j)(n-1-j)/2 (includes the
	// minBase shift: packed_j = dd_j - minBase). The deltas stream
	// through a fixed-size stack chunk instead of being materialized:
	// chunk boundaries are kept multiples of the plan's BlockElems (and
	// hence of 8), so every chunk starts byte-aligned in the packed
	// stream.
	var chunk [8 * pipeline.MaxNv]int64
	chunkE := len(chunk)
	if b.Width > 0 && b.Width <= pipeline.MaxNarrowWidth {
		p, err := pipeline.PlanFor(b.Width)
		if err != nil {
			return 0, err
		}
		chunkE = len(chunk) / p.BlockElems * p.BlockElems
	}
	for e := 0; e < m; e += chunkE {
		cnt := m - e
		if cnt > chunkE {
			cnt = chunkE
		}
		off := e * int(b.Width) / 8
		if off > len(b.Packed) {
			return 0, bitio.ErrShortBuffer
		}
		if err := pipeline.DecodeDeltasInto(chunk[:cnt], b.Packed[off:], cnt, b.Width, b.MinBase); err != nil {
			return 0, err
		}
		for i, d := range chunk[:cnt] {
			j := int64(e + i)
			if j < 0 || j >= n {
				return 0, ErrOverflow // unreachable: j <= m-1 <= n-3
			}
			// w = (n-2-j)(n-1-j)/2 is the triangle number T(n-1-j).
			w, okW := triangleChecked(n - 1 - j)
			term, ok1 := mulChecked(d, w)
			var ok2 bool
			total, ok2 = addChecked(total, term)
			if !okW || !ok1 || !ok2 {
				return 0, ErrOverflow
			}
		}
	}
	return total, nil
}

package fusion

import (
	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/pipeline"
)

// SumBlock computes Σ values of a TS2DIFF order-1 block without Delta
// decoding (Example 2: the sum is a weighted combination of the packed
// deltas and the base). With v_i = first + i·minBase + P_i and
// P_i = Σ_{j<i} packed_j:
//
//	Σ v = n·first + minBase·n(n-1)/2 + Σ_i P_i
//
// The Σ P term is one pass over the packed fields; nothing is
// materialized.
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
	total, ok3 := encoding.AddChecked(total, ramp)
	if !okT || !ok2 || !ok3 {
		return 0, ErrOverflow
	}
	sumP, err := sumPrefixes(b.Packed, m, b.Width)
	if err != nil {
		return 0, err
	}
	total, ok = encoding.AddChecked(total, sumP)
	if !ok {
		return 0, ErrOverflow
	}
	return total, nil
}

// sumPrefixes returns Σ_{i=1..m} P_i with P_i the inclusive prefix sums of
// the packed fields.
//
//etsqp:bounds width [0, 64]
//etsqp:hotpath
//etsqp:rangecheck
func sumPrefixes(packed []byte, m int, width uint) (int64, error) {
	if width == 0 {
		return 0, nil // all packed fields are zero
	}
	r := bitio.NewReader(packed)
	// 256 fields are whole bytes and whole 64-field groups at every
	// width, so every chunk but the last is unpacked by kernels alone.
	var fields [256]int64
	var sumP, prefix int64
	for m > 0 {
		n := min(m, len(fields))
		if err := r.ReadFields(fields[:n], width); err != nil {
			return 0, err
		}
		for _, f := range fields[:n] {
			var okP, ok bool
			prefix, okP = encoding.AddChecked(prefix, f)
			sumP, ok = encoding.AddChecked(sumP, prefix)
			if !(okP && ok) {
				return 0, ErrOverflow
			}
		}
		m -= n
	}
	return sumP, nil
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
	total, ok2 := encoding.AddChecked(total, ramp)
	if !okT || !ok1 || !ok2 {
		return 0, ErrOverflow
	}
	m := b.NumPacked() // n-2 second-order deltas
	if m == 0 {
		return total, nil
	}
	// Weighted sum of dd_j with weight (n-2-j)(n-1-j)/2 (includes the
	// minBase shift: packed_j = dd_j - minBase). The deltas stream
	// through a fixed-size stack chunk instead of being materialized;
	// 128 fields are whole bytes at every width, so every chunk starts
	// byte-aligned in the packed stream.
	var chunk [128]int64
	for e := 0; e < m; e += len(chunk) {
		cnt := m - e
		if cnt > len(chunk) {
			cnt = len(chunk)
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
			total, ok2 = encoding.AddChecked(total, term)
			if !okW || !ok1 || !ok2 {
				return 0, ErrOverflow
			}
		}
	}
	return total, nil
}

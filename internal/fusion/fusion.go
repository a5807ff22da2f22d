// Package fusion implements Section IV: aggregation without decoding.
// Associative and algebraic aggregations (SUM, COUNT, Σv², and the
// variance built from them) are computed directly on Delta-Repeat pairs
// and on TS2DIFF blocks, no decoded value materialized: runs in closed
// form, TS2DIFF packed deltas streamed once through a stack chunk.
//
// The core identity: over one Delta-Repeat pair ⟨Δ, R⟩ starting after
// value a, the next `valid <= R` values contribute
//
//	Σ_{i=1..valid} (a + iΔ) = valid·a + Δ·valid(valid+1)/2
//
// and an analogous closed form exists for squares
// (Proposition 3), so each pair costs O(1) regardless of its run length.
package fusion

import (
	"errors"
	"math"
	"math/bits"

	"etsqp/internal/encoding"
)

// ErrOverflow reports that an aggregation exceeded int64 (the failure
// behaviour of Section VI-C: detect, don't wrap).
var ErrOverflow = errors.New("fusion: aggregate overflow")

// mulChecked multiplies two int64 detecting overflow: the 128-bit
// product of the magnitudes must fit below 2^63, or reach exactly 2^63
// when the signs differ (MinInt64). No division, so MinInt64·−1, whose
// quotient test wraps back to MinInt64, is caught too.
//
//etsqp:checked mul
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:inline
func mulChecked(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(encoding.Magnitude(a), encoding.Magnitude(b))
	return a * b, hi == 0 && lo <= math.MaxInt64+uint64(a^b)>>63
}

// sumArithChecked is Σ_{i=1..n} i = n(n+1)/2, detecting overflow. Exactly
// one of n and n+1 is even, so halving that factor before the multiply
// keeps every intermediate exact; the one wrap (n+1 at n = MaxInt64)
// flips the sign and mulChecked rejects it.
//
//etsqp:checked
//etsqp:bounds return [0, 1<<63)
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
func sumArithChecked(n int64) (int64, bool) {
	if n <= 0 {
		return 0, n == 0
	}
	if n&1 == 0 {
		return mulChecked(n/2, n+1)
	}
	return mulChecked(n, (n+1)/2)
}

// sumSquaresArithChecked is Σ_{i=1..n} i² = n(n+1)(2n+1)/6, detecting
// overflow. The divisor 6 is split exactly across the three factors:
// one of {n, n+1, 2n+1} is divisible by 3 (2n+1 is when n ≡ 1 mod 3), and
// after that division the even member of {n, n+1} is still even. Beyond
// n ≥ 2^31 the true result exceeds int64 anyway (≈ n³/3 ≥ 2^91), so the
// guard rejects before 2n+1 could wrap.
//
//etsqp:checked
//etsqp:bounds return [0, 1<<63)
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
func sumSquaresArithChecked(n int64) (int64, bool) {
	if n <= 0 {
		return 0, n == 0
	}
	if n >= 1<<31 {
		return 0, false
	}
	a, b, c := n, n+1, 2*n+1
	switch n % 3 {
	case 0:
		a /= 3
	case 1:
		c /= 3
	default:
		b /= 3
	}
	if a&1 == 0 {
		a /= 2
	} else {
		b /= 2
	}
	p, ok1 := mulChecked(a, b)
	q, ok2 := mulChecked(p, c)
	return q, ok1 && ok2
}

// Count returns the number of values represented.
//
//etsqp:hotpath
func Count(pairs []encoding.DeltaRun) int {
	n := 1
	for _, p := range pairs {
		n += p.Count
	}
	return n
}

// SumSquares aggregates Σ v² without decoding:
// Σ_{i=1..n}(a+iΔ)² = n·a² + 2aΔ·Σi + Δ²·Σi².
//
//etsqp:hotpath
//etsqp:rangecheck
func SumSquares(first int64, pairs []encoding.DeltaRun) (int64, error) {
	total, ok := mulChecked(first, first)
	if !ok {
		return 0, ErrOverflow
	}
	cur := first
	for _, p := range pairs {
		n := int64(p.Count)
		a2, ok1 := mulChecked(cur, cur)
		t1, ok2 := mulChecked(a2, n)
		twoA, ok3 := mulChecked(cur, 2)
		cross, ok4 := mulChecked(twoA, p.Delta)
		tri, ok5 := sumArithChecked(n)
		cross, ok6 := mulChecked(cross, tri)
		d2, ok7 := mulChecked(p.Delta, p.Delta)
		sq, ok8 := sumSquaresArithChecked(n)
		d2, ok9 := mulChecked(d2, sq)
		s, ok10 := encoding.AddChecked(t1, cross)
		s, ok11 := encoding.AddChecked(s, d2)
		var ok12 bool
		total, ok12 = encoding.AddChecked(total, s)
		step, ok13 := mulChecked(p.Delta, n)
		var ok14 bool
		cur, ok14 = encoding.AddChecked(cur, step)
		if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8 &&
			ok9 && ok10 && ok11 && ok12 && ok13 && ok14) {
			return 0, ErrOverflow
		}
	}
	return total, nil
}

// Variance computes the population variance algebraically from the fused
// Σv and Σv² (an algebraic aggregation per Proposition 3).
func Variance(first int64, pairs []encoding.DeltaRun) (float64, error) {
	s, err := Sum(first, pairs)
	if err != nil {
		return 0, err
	}
	sq, err := SumSquares(first, pairs)
	if err != nil {
		return 0, err
	}
	n := float64(Count(pairs))
	mean := float64(s) / n
	return float64(sq)/n - mean*mean, nil
}

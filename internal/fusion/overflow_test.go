package fusion

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
)

// fitsInt64 reports whether z fits int64, returning the value when it does.
func fitsInt64(z *big.Int) (int64, bool) {
	if z.IsInt64() {
		return z.Int64(), true
	}
	return 0, false
}

// boundaryNs covers both sides of every interesting threshold:
//   - sqrt(2^63) ≈ 3037000499.98, where naive n*(n±1) wraps,
//   - 2^31, the sumSquaresArithChecked reject guard,
//   - 2^32-1, the largest block Count ts2diff can round-trip,
//   - MaxInt64 itself (n+1 wraps in any naive form).
var boundaryNs = []int64{
	0, 1, 2, 3, 4, 5, 6, 7,
	1<<31 - 1, 1 << 31, 1<<31 + 1,
	3037000499, 3037000500,
	4_000_000_000,
	1<<32 - 1, 1 << 32,
	math.MaxInt64 - 1, math.MaxInt64,
}

func TestSumArithCheckedAgainstBig(t *testing.T) {
	for _, n := range boundaryNs {
		got, ok := sumArithChecked(n)
		// n(n+1)/2 exactly, in big-int arithmetic.
		z := new(big.Int).SetInt64(n)
		z.Mul(z, big.NewInt(0).Add(big.NewInt(n), big.NewInt(1)))
		z.Div(z, big.NewInt(2))
		want, fits := fitsInt64(z)
		if ok != fits {
			t.Errorf("sumArithChecked(%d): ok = %v, want %v (big value %s)", n, ok, fits, z)
			continue
		}
		if ok && got != want {
			t.Errorf("sumArithChecked(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTriangleCheckedAgainstBig(t *testing.T) {
	for _, n := range boundaryNs {
		got, ok := triangleChecked(n)
		z := new(big.Int).SetInt64(n)
		z.Mul(z, big.NewInt(0).Sub(big.NewInt(n), big.NewInt(1)))
		z.Div(z, big.NewInt(2))
		want, fits := fitsInt64(z)
		if ok != fits {
			t.Errorf("triangleChecked(%d): ok = %v, want %v (big value %s)", n, ok, fits, z)
			continue
		}
		if ok && got != want {
			t.Errorf("triangleChecked(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSumSquaresArithCheckedAgainstBig(t *testing.T) {
	for _, n := range boundaryNs {
		got, ok := sumSquaresArithChecked(n)
		// n(n+1)(2n+1)/6 exactly.
		z := new(big.Int).SetInt64(n)
		z.Mul(z, big.NewInt(0).Add(big.NewInt(n), big.NewInt(1)))
		z.Mul(z, big.NewInt(0).Add(big.NewInt(0).Mul(big.NewInt(2), big.NewInt(n)), big.NewInt(1)))
		z.Div(z, big.NewInt(6))
		want, fits := fitsInt64(z)
		if ok && got != want {
			t.Errorf("sumSquaresArithChecked(%d) = %d, want %d", n, got, want)
		}
		// The helper may reject early (n >= 2^31 guard) even when the true
		// value would fit — conservative is allowed — but it must never
		// accept a value that does not fit, and below the guard it must be
		// exact.
		if ok && !fits {
			t.Errorf("sumSquaresArithChecked(%d): accepted a value that overflows int64 (big value %s)", n, z)
		}
		if !ok && fits && n < 1<<31 {
			t.Errorf("sumSquaresArithChecked(%d): rejected a representable value %s", n, z)
		}
	}
}

// TestCheckedHelpersMatchBig pins every checked helper against math/big
// on a grid of edge operands: ok must be exactly "the true result fits
// int64" and the result exact when it does. mulChecked(MinInt64, -1) is
// the case a quotient test cannot see: Go defines MinInt64 / -1 as
// MinInt64, so p/b == a although the product does not fit.
func TestCheckedHelpersMatchBig(t *testing.T) {
	grid := []int64{0, 1, -1, 2, -2, 1 << 31, -1 << 31, 1 << 32, -1 << 32,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	check := func(name string, got int64, ok bool, z *big.Int) {
		t.Helper()
		want, fits := fitsInt64(z)
		if ok != fits || ok && got != want {
			t.Errorf("%s = %d, %v; exact %s", name, got, ok, z)
		}
	}
	for _, a := range grid {
		for _, b := range grid {
			p, ok := mulChecked(a, b)
			check(fmt.Sprintf("mulChecked(%d, %d)", a, b), p, ok, new(big.Int).Mul(big.NewInt(a), big.NewInt(b)))
			s, ok := encoding.AddChecked(a, b)
			check(fmt.Sprintf("encoding.AddChecked(%d, %d)", a, b), s, ok, new(big.Int).Add(big.NewInt(a), big.NewInt(b)))
		}
		// Σ_{i=1..n} i and Σ_{i=1..n-1} i; both helpers refuse n < 0.
		n := big.NewInt(a)
		sum := new(big.Int).Mul(n, new(big.Int).Add(n, big.NewInt(1)))
		tri := new(big.Int).Mul(n, new(big.Int).Sub(n, big.NewInt(1)))
		sum.Rsh(sum, 1)
		tri.Rsh(tri, 1)
		if a < 0 { // no such sum: the helpers must refuse
			sum.SetUint64(1 << 63)
			tri.SetUint64(1 << 63)
		}
		got, ok := sumArithChecked(a)
		check(fmt.Sprintf("sumArithChecked(%d)", a), got, ok, sum)
		got, ok = triangleChecked(a)
		check(fmt.Sprintf("triangleChecked(%d)", a), got, ok, tri)
	}
}

// TestRampWeightAgainstBig: rampWeight is Σ_{j0..j1} j modulo 2^64, so
// exact wherever the true weight fits int64 — SumRangeSegments relies on
// nothing more.
func TestRampWeightAgainstBig(t *testing.T) {
	windows := [][2]int{
		{0, 0}, {0, 1}, {4, 5}, {0, 4_000_000_000},
		{3_999_999_000, 4_000_000_000},
		{0, 1<<32 - 1}, {1 << 31, 1 << 32},
		{0, 1<<62 - 1}, {1<<62 - 10, 1<<62 - 1},
		{0, 1 << 62}, {1, math.MaxInt64}, {math.MaxInt64 - 1, math.MaxInt64},
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, w := range windows {
		j0, j1 := w[0], w[1]
		z := big.NewInt(int64(j0))
		z.Add(z, big.NewInt(int64(j1)))
		z.Mul(z, new(big.Int).Add(big.NewInt(int64(j1-j0)), big.NewInt(1)))
		z.Rsh(z, 1)
		got := rampWeight(j0, j1)
		if want := new(big.Int).Mod(z, mod); uint64(got) != want.Uint64() {
			t.Errorf("rampWeight(%d, %d) = %d, want %s mod 2^64", j0, j1, got, z)
		}
	}
}

// TestSumBlockRampBoundary is the regression for the silent int64 wrap the
// old ramp form had: minBase·n·(n-1)/2 computed as n*(n-1)/2 wraps for
// n > 3037000499 even when the true triangle number fits int64. Width 0
// keeps the packed-prefix term empty, so the test isolates the ramp and
// runs in microseconds despite the four-billion-row Count.
func TestSumBlockRampBoundary(t *testing.T) {
	const n = 4_000_000_000
	const tri = 7_999_999_998_000_000_000 // T(4e9) = n(n-1)/2, fits int64
	b := &ts2diff.Block{
		Order:   ts2diff.Order1,
		Count:   n,
		First:   0,
		MinBase: 1,
		Width:   0,
	}
	got, err := SumBlock(b)
	if err != nil {
		t.Fatalf("SumBlock(ramp n=%d): %v", n, err)
	}
	if got != tri {
		t.Errorf("SumBlock(ramp n=%d) = %d, want %d", n, got, tri)
	}
	// The naive form computed n*(n-1) first, which wraps past int64 and
	// came out negative; make the regression explicit.
	nn := int64(n)
	if naive := nn * (nn - 1) / 2; naive >= 0 {
		t.Fatalf("test premise broken: naive n*(n-1)/2 = %d no longer wraps", naive)
	}

	// MinBase 3 pushes the ramp past MaxInt64: the fused path must report
	// ErrOverflow, not a wrapped value.
	b.MinBase = 3
	if _, err := SumBlock(b); !errors.Is(err, ErrOverflow) {
		t.Errorf("SumBlock(ramp n=%d, minBase=3): err = %v, want ErrOverflow", n, err)
	}
}

// TestSumBlockOrder2RampOverflow drives the order-2 d1·n(n-1)/2 ramp past
// int64. The overflow is detected in the closed-form prefix before the
// packed-delta loop runs, so the four-billion-row block is still fast.
func TestSumBlockOrder2RampOverflow(t *testing.T) {
	b := &ts2diff.Block{
		Order:      ts2diff.Order2,
		Count:      4_000_000_000,
		First:      0,
		FirstDelta: 2, // 2 · T(4e9) ≈ 1.6e19 > MaxInt64
		Width:      0,
	}
	if _, err := SumBlockOrder2(b); !errors.Is(err, ErrOverflow) {
		t.Errorf("SumBlockOrder2(overflowing ramp): err = %v, want ErrOverflow", err)
	}
	// A small block with the same shape (width 0 ⇒ every second-order
	// delta equals MinBase = 0 ⇒ a pure linear ramp) checks the closed
	// form stays exact: Σ_{i<n} (first + i·d1) = n·first + d1·T(n-1).
	small := &ts2diff.Block{
		Order:      ts2diff.Order2,
		Count:      100,
		First:      -7,
		FirstDelta: 5,
		Width:      0,
	}
	got, err := SumBlockOrder2(small)
	if err != nil {
		t.Fatalf("SumBlockOrder2(small ramp): %v", err)
	}
	want := int64(small.Count)*small.First + small.FirstDelta*int64(small.Count)*(int64(small.Count)-1)/2
	if got != want {
		t.Errorf("SumBlockOrder2(small ramp) = %d, want %d", got, want)
	}
}

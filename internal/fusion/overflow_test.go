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
		// Σ_{i=1..n} i; the helper refuses n < 0.
		n := big.NewInt(a)
		sum := new(big.Int).Mul(n, new(big.Int).Add(n, big.NewInt(1)))
		sum.Rsh(sum, 1)
		if a < 0 { // no such sum: the helper must refuse
			sum.SetUint64(1 << 63)
		}
		got, ok := sumArithChecked(a)
		check(fmt.Sprintf("sumArithChecked(%d)", a), got, ok, sum)
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

// TestSumBlockRampBoundary pins SumBlock's exact-or-overflow edge on an
// order-1 page: a width-0 block is the ramp First + i·MinBase, and
// MinBase 2^40 puts the ramp's own total within 0.03 % of MaxInt64.
func TestSumBlockRampBoundary(t *testing.T) {
	checkPageEdges(t, &ts2diff.Block{Order: ts2diff.Order1, Count: pageRows, MinBase: 1 << 40})
}

// TestSumBlockOrder2RampOverflow pins the same edges on an order-2 page:
// width 0 makes every second-order delta MinBase, so the rows follow a
// parabola that falls by FirstDelta and turns.
func TestSumBlockOrder2RampOverflow(t *testing.T) {
	checkPageEdges(t, &ts2diff.Block{Order: ts2diff.Order2, Count: pageRows, FirstDelta: -1 << 40, MinBase: 1 << 29})
}

// pageRows is a full page, storage.DefaultPageSize rows.
const pageRows = 4096

// checkPageEdges sets b.First to the values that put the block's total
// at MaxInt64 and MinInt64 or just inside, where SumBlock must return
// the decoded rows' exact total, and one step further out, where it must
// return ErrOverflow. No row wraps: First shifts every row alike, so the
// total is Count·First plus the total at First 0.
func checkPageEdges(t *testing.T, b *ts2diff.Block) {
	t.Helper()
	total := func(first int64) *big.Int {
		b.First = first
		vals, err := b.Decode()
		if err != nil {
			t.Fatal(err)
		}
		z := new(big.Int)
		for _, v := range vals {
			z.Add(z, big.NewInt(v))
		}
		return z
	}
	n, ramp := big.NewInt(int64(b.Count)), total(0)
	hi := new(big.Int).Sub(big.NewInt(math.MaxInt64), ramp)
	lo := new(big.Int).Sub(ramp, big.NewInt(math.MinInt64))
	hi.Div(hi, n)         // floor: the largest First whose total fits
	lo.Div(lo, n).Neg(lo) // ceil of (MinInt64 − ramp)/n: the smallest
	for _, edge := range []struct{ in, out int64 }{
		{hi.Int64(), hi.Int64() + 1},
		{lo.Int64(), lo.Int64() - 1},
	} {
		want := total(edge.in)
		if got, err := SumBlock(b); err != nil || !want.IsInt64() || got != want.Int64() {
			t.Errorf("order %d First %d: SumBlock = %d, %v; rows total %s", b.Order, edge.in, got, err, want)
		}
		if over := total(edge.out); over.IsInt64() {
			t.Fatalf("order %d First %d: premise broken, total %s fits int64", b.Order, edge.out, over)
		}
		if _, err := SumBlock(b); !errors.Is(err, ErrOverflow) {
			t.Errorf("order %d First %d: SumBlock err = %v, want ErrOverflow", b.Order, edge.out, err)
		}
	}
}

// TestPageSumExactOnStoredRows: a page-level SUM is the exact total of
// the stored rows, each its predecessor plus Δ mod 2^64, and ErrOverflow
// only when that total leaves int64 — whatever a running sum or a row
// does on the way.
func TestPageSumExactOnStoredRows(t *testing.T) {
	const h = math.MaxInt64 / 2
	runs := []struct {
		name  string
		first int64
		pairs []encoding.DeltaRun
		want  int64
	}{
		{"max-then-min", math.MaxInt64, []encoding.DeltaRun{{Delta: 1, Count: 1}}, -1},
		{"half-max-doubled", h, []encoding.DeltaRun{{Delta: h, Count: 2}}, 9_223_372_036_854_775_802},
		{"leave-and-return", math.MaxInt64, []encoding.DeltaRun{
			{Delta: 0, Count: 1}, {Delta: 1, Count: 1}, {Delta: 0, Count: 1}, {Delta: math.MinInt64 + 7, Count: 1},
		}, 5},
		{"max-one-minus-one", math.MaxInt64, []encoding.DeltaRun{{Delta: 1 - math.MaxInt64, Count: 1}, {Delta: -2, Count: 1}}, math.MaxInt64},
	}
	for _, c := range runs {
		if got, err := Sum(c.first, c.pairs); err != nil || got != c.want {
			t.Errorf("Sum(%s) = %d, %v; want %d", c.name, got, err, c.want)
		}
	}
	if _, err := Sum(math.MaxInt64, []encoding.DeltaRun{{Delta: 1 - math.MaxInt64, Count: 1}}); !errors.Is(err, ErrOverflow) {
		t.Errorf("Sum([MaxInt64, 1]) err = %v, want ErrOverflow", err)
	}

	blocks := []struct {
		vals   []int64
		orders []ts2diff.Order
		want   int64
		err    error
	}{
		{[]int64{1 << 62, 1 << 62, -1 << 62, -1 << 62}, []ts2diff.Order{ts2diff.Order1}, 0, nil},
		{[]int64{math.MaxInt64, 1, -1}, []ts2diff.Order{ts2diff.Order1, ts2diff.Order2}, math.MaxInt64, nil},
		{[]int64{math.MaxInt64, 1}, []ts2diff.Order{ts2diff.Order1, ts2diff.Order2}, 0, ErrOverflow},
	}
	for _, c := range blocks {
		for _, order := range c.orders {
			b, err := ts2diff.Encode(c.vals, order)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := SumBlock(b); !errors.Is(err, c.err) || err == nil && got != c.want {
				t.Errorf("SumBlock(%v, order %d) = %d, %v; want %d, %v", c.vals, order, got, err, c.want, c.err)
			}
		}
	}
}

package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// TestPartialAggOverflowStickiness exercises the Section VI-C invariant:
// once any accumulation step leaves int64, the overflow flag must
// survive every later fold and every merge order, and final() must turn
// it into an error for the value-carrying aggregates instead of
// returning a wrapped number.
func TestPartialAggOverflowStickiness(t *testing.T) {
	overflowed := func() *partialAgg {
		p := &partialAgg{}
		p.addValue(math.MaxInt64)
		p.addValue(1) // sum wraps here
		return p
	}
	clean := func() *partialAgg {
		p := &partialAgg{}
		p.addValue(3)
		p.addValue(4)
		return p
	}

	if p := overflowed(); !p.overflow {
		t.Fatal("addValue(MaxInt64) then addValue(1) did not set overflow")
	}

	t.Run("merge-orders", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			dst  *partialAgg
			src  *partialAgg
		}{
			{"clean-into-overflowed", overflowed(), clean()},
			{"overflowed-into-clean", clean(), overflowed()},
			{"overflowed-into-overflowed", overflowed(), overflowed()},
		} {
			tc.dst.merge(tc.src)
			if !tc.dst.overflow {
				t.Errorf("%s: overflow flag lost through merge", tc.name)
			}
		}
	})

	t.Run("merge-chain", func(t *testing.T) {
		// A window partial merged through several empty worker slots — the
		// shape executeAgg produces with more workers than slices.
		global := &partialAgg{}
		global.merge(&partialAgg{})
		global.merge(overflowed())
		global.merge(&partialAgg{})
		global.merge(clean())
		if !global.overflow {
			t.Fatal("overflow flag lost merging through empty partials")
		}
	})

	t.Run("addSum-and-addBoundary-preserve", func(t *testing.T) {
		p := overflowed()
		p.addSum(10, 2)
		p.addBoundary(0, 1, 9, 2)
		if !p.overflow {
			t.Fatal("overflow flag lost through addSum/addBoundary")
		}
	})

	t.Run("addSum-sets", func(t *testing.T) {
		p := &partialAgg{}
		p.addSum(math.MaxInt64, 1)
		p.addSum(math.MaxInt64, 1) // fused per-block sums overflow on fold
		if !p.overflow {
			t.Fatal("addSum fold past MaxInt64 did not set overflow")
		}
	})

	t.Run("count-overflow", func(t *testing.T) {
		p := &partialAgg{count: math.MaxInt64}
		p.addSum(0, 1)
		if !p.overflow {
			t.Fatal("count fold past MaxInt64 did not set overflow")
		}
	})

	t.Run("final", func(t *testing.T) {
		for _, agg := range []sqlparse.AggFunc{sqlparse.AggSum, sqlparse.AggAvg, sqlparse.AggVar} {
			p := overflowed()
			if _, err := p.final(agg); err == nil {
				t.Errorf("final(%s) on overflowed partial returned no error", agg)
			} else if !strings.Contains(err.Error(), "overflow") {
				t.Errorf("final(%s) error %q does not mention overflow", agg, err)
			}
		}
		// COUNT and MIN/MAX never consumed the wrapped sum; they stay
		// answerable (the flag only poisons sum-derived results).
		p := overflowed()
		if v, err := p.final(sqlparse.AggCount); err != nil || v != 2 {
			t.Errorf("final(COUNT) = %v, %v; want 2, nil", v, err)
		}
		if v, err := p.final(sqlparse.AggMax); err != nil || v != float64(math.MaxInt64) {
			t.Errorf("final(MAX) = %v, %v; want MaxInt64, nil", v, err)
		}
	})
}

// TestRLBEExtremeDeltas stores RLBE pages whose deltas need Fibonacci
// digits up to F(93) (|Δ| of 2^62 and MaxInt64, which the store once
// accepted and then read back as other values or as corrupt), and asks
// every mode for SUM, MIN and MAX, whole-page and sliced. Each answer
// must equal the oracle, or be ErrOverflow where the oracle's running
// sum leaves int64.
func TestRLBEExtremeDeltas(t *testing.T) {
	const n = 3000
	spike, peak, alternate := make([]int64, n), make([]int64, n), make([]int64, n)
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 100
	}
	spike[1], peak[1] = 1<<62, math.MaxInt64
	for i := 1; i < n; i += 2 {
		alternate[i] = 1 << 62
	}
	for name, vals := range map[string][]int64{"spike": spike, "peak": peak, "alternate": alternate} {
		var sum int64
		overflow := false
		for _, v := range vals {
			s, ok := encoding.AddChecked(sum, v)
			sum, overflow = s, overflow || !ok
		}
		st := storage.NewStore()
		if err := st.Append("ts", ts, vals, storage.Options{PageSize: 1024, ValueCodec: "rlbe"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mode := range allModes {
			for _, cut := range []int{0, 3} {
				e := New(st, mode)
				e.Workers, e.ForceSlices = 2, cut
				res, err := e.ExecuteSQL("SELECT SUM(A), MIN(A), MAX(A) FROM ts")
				label := fmt.Sprintf("%s/%v/slices=%d", name, mode, cut)
				if overflow {
					if !errors.Is(err, ErrOverflow) {
						t.Errorf("%s: error %v, want ErrOverflow", label, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := map[string]float64{"SUM(A)": float64(sum), "MIN(A)": float64(slices.Min(vals)), "MAX(A)": float64(slices.Max(vals))}
				for k, w := range want {
					if got := res.Aggregates[k]; got != w {
						t.Errorf("%s: %s = %v, want %v", label, k, got, w)
					}
				}
			}
		}
	}
}

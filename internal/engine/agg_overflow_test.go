package engine

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// TestPartialAggOverflowStickiness exercises the Section VI-C invariant
// on the exact total: once the Σv of the rows folded leaves int64, no
// merge order and no fold of rows that leave it there loses that, and
// final() turns it into an error for the value-carrying aggregates
// instead of returning a wrapped number. A total that leaves int64 and
// comes back answers: the verdict is the total's, not the running sum's.
func TestPartialAggOverflowStickiness(t *testing.T) {
	overflowed := func() *partialAgg {
		p := &partialAgg{}
		p.addValue(math.MaxInt64)
		p.addValue(1) // the total is 2^63
		return p
	}
	clean := func() *partialAgg {
		p := &partialAgg{}
		p.addValue(3)
		p.addValue(4)
		return p
	}
	exact := encoding.Int128{}.AddInt64
	overflows := func(p *partialAgg) bool {
		_, err := p.final(sqlparse.AggSum)
		return errors.Is(err, ErrOverflow)
	}

	if !overflows(overflowed()) {
		t.Fatal("a total of MaxInt64 + 1 is not an overflow")
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
			if !overflows(tc.dst) {
				t.Errorf("%s: a total past int64 lost through merge", tc.name)
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
		if !overflows(global) {
			t.Fatal("a total past int64 lost merging through empty partials")
		}
	})

	t.Run("addSum-and-addBoundary-preserve", func(t *testing.T) {
		p := overflowed()
		p.addSum(exact(10), 2)
		p.addBoundary(0, 1, 9, 2)
		if !overflows(p) {
			t.Fatal("a total past int64 lost through addSum/addBoundary")
		}
	})

	t.Run("addSum-sets", func(t *testing.T) {
		p := &partialAgg{}
		p.addSum(exact(math.MaxInt64), 1)
		p.addSum(exact(math.MaxInt64), 1) // fused per-segment sums past int64
		if !overflows(p) {
			t.Fatal("addSum past MaxInt64 is not an overflow")
		}
	})

	t.Run("leave-and-return", func(t *testing.T) {
		// Row order leaves int64 at the second row and comes back at the
		// fourth; folded in one partial, and split across two merged in
		// either order, the total is 3.
		rows := []int64{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64, 5}
		one := &partialAgg{}
		for _, v := range rows {
			one.addValue(v)
		}
		a, b := &partialAgg{}, &partialAgg{}
		for i, v := range rows {
			[]*partialAgg{a, b}[min(i/2, 1)].addValue(v)
		}
		ab, ba := *a, *b
		ab.merge(b)
		ba.merge(a)
		for name, p := range map[string]*partialAgg{"one partial": one, "a+b": &ab, "b+a": &ba} {
			if v, err := p.final(sqlparse.AggSum); err != nil || v != 3 {
				t.Errorf("%s: SUM = %v, %v; want 3", name, v, err)
			}
			if v, err := p.final(sqlparse.AggAvg); err != nil || v != 0.6 {
				t.Errorf("%s: AVG = %v, %v; want 0.6", name, v, err)
			}
			if _, err := p.final(sqlparse.AggVar); err != nil {
				t.Errorf("%s: VAR: %v", name, err)
			}
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
		// COUNT and MIN/MAX never read the sum; they stay answerable.
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
// accepted and then read back as other values or as corrupt), a run of
// two steps of MaxInt64 from MinInt64, and the wrapped-run column
// [MinInt64, MaxInt64, 2^62, 2^62, 2^62], whose first delta −1 wraps, so
// that its runs summed in ℤ would fit int64 while its stored rows total
// 3·2^62 − 1. It asks every mode for SUM, MIN and MAX, and for SUM per
// GROUP BY TIME window, whole-page and sliced, at one and two workers.
// Each answer must equal the stored rows' exact total, or be ErrOverflow
// where that total (a window's, for windows) leaves int64.
func TestRLBEExtremeDeltas(t *testing.T) {
	const n, window = 3000, 70_000 // 700 rows a window, across the 1 024-row pages
	spike, peak, alternate := make([]int64, n), make([]int64, n), make([]int64, n)
	maxStep, wrapped := make([]int64, n), make([]int64, n)
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 100
	}
	spike[1], peak[1] = 1<<62, math.MaxInt64
	for i := 1; i < n; i += 2 {
		alternate[i] = 1 << 62
	}
	copy(maxStep, []int64{math.MinInt64, -1, math.MaxInt64 - 1}) // Δ = MaxInt64 twice
	copy(wrapped, []int64{math.MinInt64, math.MaxInt64, 1 << 62, 1 << 62, 1 << 62})
	total := func(vals []int64) (int64, bool) {
		sum := new(big.Int)
		for _, v := range vals {
			sum.Add(sum, big.NewInt(v))
		}
		return sum.Int64(), sum.IsInt64()
	}
	for name, vals := range map[string][]int64{"spike": spike, "peak": peak, "alternate": alternate,
		"max-step": maxStep, "wrapped-run": wrapped} {
		sum, fits := total(vals)
		var wins []int64 // each window's total, while every one fits
		winFits := true
		for lo := 0; lo < n; lo += window / 100 {
			s, ok := total(vals[lo:min(lo+window/100, n)])
			wins, winFits = append(wins, s), winFits && ok
		}
		st := storage.NewStore()
		if err := st.Append("ts", ts, vals, storage.Options{PageSize: 1024, ValueCodec: "rlbe"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mode := range allModes {
			for _, workers := range []int{1, 2} {
				for _, cut := range []int{0, 3} {
					e := New(st, mode)
					e.Workers, e.ForceSlices = workers, cut
					label := fmt.Sprintf("%s/%v/workers=%d/slices=%d", name, mode, workers, cut)
					res, err := e.ExecuteSQL("SELECT SUM(A), MIN(A), MAX(A) FROM ts")
					switch {
					case !fits:
						if !errors.Is(err, ErrOverflow) {
							t.Errorf("%s: error %v, want ErrOverflow", label, err)
						}
					case err != nil:
						t.Fatalf("%s: %v", label, err)
					default:
						want := map[string]float64{"SUM(A)": float64(sum), "MIN(A)": float64(slices.Min(vals)), "MAX(A)": float64(slices.Max(vals))}
						for k, w := range want {
							if got := res.Aggregates[k]; got != w {
								t.Errorf("%s: %s = %v, want %v", label, k, got, w)
							}
						}
					}
					res, err = e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A) FROM ts GROUP BY TIME(%d)", window))
					switch {
					case !winFits:
						if !errors.Is(err, ErrOverflow) {
							t.Errorf("%s windows: error %v, want ErrOverflow", label, err)
						}
					case err != nil:
						t.Fatalf("%s windows: %v", label, err)
					case len(res.Windows) != len(wins):
						t.Fatalf("%s: %d windows, want %d", label, len(res.Windows), len(wins))
					default:
						for i, w := range res.Windows {
							if w.Value != float64(wins[i]) {
								t.Errorf("%s: window %d SUM = %v, want %d", label, i, w.Value, wins[i])
							}
						}
					}
				}
			}
		}
	}
}

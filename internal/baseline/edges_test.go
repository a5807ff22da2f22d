package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/engine"
	"etsqp/internal/storage"
)

// TestValueBoundsAtInt64Edges: value and time predicates span all of
// int64, a strict bound at an int64 edge selects nothing, and the
// Proposition 5 stop rule never fires on a walk that wraps — in every
// mode, on whole pages and on pages cut into slices, against the re-scan
// oracle over the rows each predicate keeps. COUNT alone takes the
// prune mode's one-pass scan; beside MIN and MAX it takes decode-then-fold.
func TestValueBoundsAtInt64Edges(t *testing.T) {
	const n = 4096
	ts := make([]int64, n)
	wrap60, alt61 := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = 1_000 + int64(i)*100
		wrap60[i] = int64(uint64(i) << 60) // cycles through ±k·2^60
		alt61[i] = int64(1-i%2) << 61
	}
	wts, walk := genWalk(rand.New(rand.NewSource(30)), 5000, 1_000)
	all := func(int64, int64) bool { return true }
	none := func(int64, int64) bool { return false }
	cases := []struct {
		ts, vals []int64
		where    string
		keep     func(t, v int64) bool
	}{
		{ts, wrap60, "A > 0", func(_, v int64) bool { return v > 0 }},
		{ts, wrap60, "A >= -9223372036854775808 AND A <= 9223372036854775807", all},
		{ts, alt61, "A > 1", func(_, v int64) bool { return v > 1 }},
		{wts, walk, "A > 9223372036854775807", none},
		{wts, walk, "A < -9223372036854775808", none},
		{wts, walk, "TIME > 9223372036854775807", none},
	}
	for _, c := range cases {
		var fts, fvs []int64
		for i, v := range c.vals {
			if c.keep(c.ts[i], v) {
				fts, fvs = append(fts, c.ts[i]), append(fvs, v)
			}
		}
		var want ScalarWindow
		if ws := ScalarWindowed(fts, fvs, c.ts[0], c.ts[len(c.ts)-1]-c.ts[0]+1, 1, c.ts[0]); len(ws) == 1 {
			want = ws[0]
		}
		sum, overflow := int64(0), false
		for _, v := range fvs {
			var ok bool
			sum, ok = addCheck(sum, v)
			overflow = overflow || !ok
		}
		for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeETSQPPrune,
			engine.ModeSerial, engine.ModeSBoost, engine.ModeFastLanes} {
			opts := storage.Options{PageSize: n}
			if mode == engine.ModeFastLanes {
				opts.ValueCodec = "fastlanes"
			}
			st := storage.NewStore()
			if err := st.Append("ts", c.ts, c.vals, opts); err != nil {
				t.Fatal(err)
			}
			for _, fs := range []int{0, 3} {
				e := engine.New(st, mode)
				e.ForceSlices = fs
				name := fmt.Sprintf("%v fs=%d WHERE %s", mode, fs, c.where)
				q := func(items string) (*engine.Result, error) {
					return e.ExecuteSQL(fmt.Sprintf("SELECT %s FROM ts WHERE %s", items, c.where))
				}
				res, err := q("COUNT(A)")
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := res.Aggregates["COUNT(A)"]; got != float64(want.Count) {
					t.Errorf("%s: COUNT %v, oracle %d", name, got, want.Count)
				}
				res, err = q("SUM(A)")
				switch {
				case overflow:
					if !errors.Is(err, engine.ErrOverflow) {
						t.Errorf("%s: SUM error %v, want ErrOverflow", name, err)
					}
				case err != nil:
					t.Fatalf("%s: %v", name, err)
				case res.Aggregates["SUM(A)"] != float64(sum):
					t.Errorf("%s: SUM %v, oracle %d", name, res.Aggregates["SUM(A)"], sum)
				}
				if want.Count == 0 {
					continue
				}
				res, err = q("COUNT(A), MIN(A), MAX(A)")
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if a := res.Aggregates; a["COUNT(A)"] != float64(want.Count) ||
					a["MIN(A)"] != float64(want.Min) || a["MAX(A)"] != float64(want.Max) {
					t.Errorf("%s: COUNT, MIN, MAX %v, oracle %d, %d, %d", name, a, want.Count, want.Min, want.Max)
				}
			}
		}
	}
}

// TestStopRuleNeedsAHeaderBound: only an order-1 header of width below 63
// bounds its page's values. A second-order value page whose first
// differences change sign (the Sine shape) and order-1 pages of widths 63
// and 64 must never stop a scan early: every mode, on whole pages of
// 4 096 rows — four stop checks each — and on pages cut into slices,
// must match the oracle over the rows each predicate keeps, bit for bit,
// and report a SUM that leaves int64 as the oracle's overflow.
func TestStopRuleNeedsAHeaderBound(t *testing.T) {
	const n, page = 10_000, 4096
	ts, sine := make([]int64, n), make([]int64, n)
	wide63, wide64 := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = 1_000_000 + int64(i)*10
		sine[i] = int64(10000 * math.Sin(2*math.Pi*float64(i)/997))
		small := int64(i%97) - 48
		wide63[i] = small + int64(i%2)<<61                 // steps of ±2^61: width 63
		wide64[i] = small + int64(i%2)*(math.MaxInt64-100) // steps near ±2^63: width 64
	}
	preds := []struct {
		where string
		keep  func(v int64) bool
	}{
		{"A < 0", func(v int64) bool { return v < 0 }},
		{"A > 5000", func(v int64) bool { return v > 5000 }},
		{"A >= 50 AND A <= 5000", func(v int64) bool { return v >= 50 && v <= 5000 }},
		{"A != 0", func(v int64) bool { return v != 0 }},
	}
	for _, c := range []struct {
		name  string
		vals  []int64
		codec string
		order ts2diff.Order
		width uint
	}{
		{"Sine ts2diff2", sine, "ts2diff2", ts2diff.Order2, 0},
		{"width-63 ts2diff", wide63, "ts2diff", ts2diff.Order1, 63},
		{"width-64 ts2diff", wide64, "ts2diff", ts2diff.Order1, 64},
	} {
		if c.width != 0 {
			b, err := ts2diff.Encode(c.vals[:page], c.order)
			if err != nil || b.Width != c.width {
				t.Fatalf("%s: page packs at width %d (%v)", c.name, b.Width, err)
			}
		}
		st := storage.NewStore()
		if err := st.Append("ts", ts, c.vals, storage.Options{PageSize: page, ValueCodec: c.codec}); err != nil {
			t.Fatal(err)
		}
		for _, pr := range preds {
			var count, sum, lo, hi int64
			overflow := false
			for _, v := range c.vals {
				if !pr.keep(v) {
					continue
				}
				if count == 0 || v < lo {
					lo = v
				}
				if count == 0 || v > hi {
					hi = v
				}
				var ok bool
				sum, ok = addCheck(sum, v)
				overflow = overflow || !ok
				count++
			}
			for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeETSQPPrune,
				engine.ModeSerial, engine.ModeSBoost, engine.ModeFastLanes} {
				for _, fs := range []int{0, 3} {
					e := engine.New(st, mode)
					e.ForceSlices = fs
					name := fmt.Sprintf("%s %v fs=%d WHERE %s", c.name, mode, fs, pr.where)
					q := func(items string) (map[string]float64, error) {
						res, err := e.ExecuteSQL(fmt.Sprintf("SELECT %s FROM ts WHERE %s", items, pr.where))
						if err != nil {
							return nil, err
						}
						return res.Aggregates, nil
					}
					a, err := q("COUNT(A)")
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if a["COUNT(A)"] != float64(count) {
						t.Errorf("%s: COUNT %v, oracle %d", name, a["COUNT(A)"], count)
					}
					sums := []string{"COUNT(A), SUM(A)", "SUM(A), MAX(A)"}
					if count == 0 {
						sums = sums[:1] // MAX has no value
					}
					for _, items := range sums {
						a, err = q(items)
						switch {
						case overflow:
							if !errors.Is(err, engine.ErrOverflow) {
								t.Errorf("%s: %s error %v, want ErrOverflow", name, items, err)
							}
						case err != nil:
							t.Fatalf("%s: %s: %v", name, items, err)
						case a["SUM(A)"] != float64(sum):
							t.Errorf("%s: %s: SUM %v, oracle %d", name, items, a["SUM(A)"], sum)
						}
					}
					if count == 0 {
						continue
					}
					a, err = q("COUNT(A), MIN(A), MAX(A)")
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if a["COUNT(A)"] != float64(count) || a["MIN(A)"] != float64(lo) || a["MAX(A)"] != float64(hi) {
						t.Errorf("%s: COUNT, MIN, MAX %v, oracle %d, %d, %d", name, a, count, lo, hi)
					}
				}
			}
		}
	}
}

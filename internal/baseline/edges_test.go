package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

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

package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	_ "etsqp/internal/encoding/rlbe"
	_ "etsqp/internal/encoding/ts2diff"
	"etsqp/internal/engine"
	"etsqp/internal/storage"
)

// The differential harness: the engine's shared-segment window path and
// streaming cursor merge/join must agree bit-for-bit with the naive
// decode-then-compute oracles in oracle.go, at any magnitude: AVG, VAR
// and CORR compare with ==, not a tolerance, and a SUM, AVG or VAR whose
// Σv leaves int64 must be the Section VI-C error.

// genWalk builds a strictly-increasing timestamp column with random
// gaps and a random-walk value column from a base of any sign and
// magnitude, the int64 edges included, saturating at the edges.
func genWalk(rng *rand.Rand, n int, t0 int64) (ts, vals []int64) {
	ts = make([]int64, n)
	vals = make([]int64, n)
	t := t0
	v := int64(rng.Uint64()) >> rng.Intn(64)
	if rng.Intn(4) == 0 {
		v = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
	}
	for i := 0; i < n; i++ {
		t += 1 + int64(rng.Intn(20))
		step := int64(rng.Intn(2001)) - 1000
		next, ok := addCheck(v, step)
		switch {
		case ok:
			v = next
		case step > 0:
			v = math.MaxInt64
		default:
			v = math.MinInt64
		}
		ts[i] = t
		vals[i] = v
	}
	return ts, vals
}

// edgePatterns are runs of rows whose totals sit at the int64 edges: an
// excursion that leaves int64 and comes back (total 3), totals of
// exactly MaxInt64 and MinInt64 and one past each, and the wrapped-run
// column [MinInt64, MaxInt64, 2^62, 2^62, 2^62], whose first delta −1
// wraps, so that its Delta-Repeat runs summed in ℤ would fit int64
// while its rows total 3·2^62 − 1.
var edgePatterns = []struct {
	name string
	rows []int64
}{
	{"leave-and-return", []int64{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64, 5}},
	{"total-max", []int64{1 << 62, 1<<62 - 1}},
	{"total-past-max", []int64{1 << 62, 1 << 62}},
	{"total-min", []int64{-1 << 62, -1 << 62}},
	{"total-past-min", []int64{-1 << 62, -1 << 62, -1}},
	{"wrapped-run", []int64{math.MinInt64, math.MaxInt64, 1 << 62, 1 << 62, 1 << 62}},
}

// splice writes rows into vals at pos. A pattern that opens on MinInt64
// gets a 1 before it, so no step into it is the delta MinInt64, which
// RLBE does not encode.
func splice(vals []int64, pos int, rows []int64) {
	copy(vals[pos:], rows)
	if rows[0] == math.MinInt64 && pos > 0 {
		vals[pos-1] = 1
	}
}

// overflows reports whether agg over the oracle's windows must be the
// Section VI-C error: a SUM, AVG or VAR whose Σv leaves int64 in a window.
func overflows(agg string, want []ScalarWindow) bool {
	for _, w := range want {
		if w.Overflow && (agg == "SUM" || agg == "AVG" || agg == "VAR") {
			return true
		}
	}
	return false
}

// wantWindowValue is the engine's answer from the oracle's per-window
// scalars.
func wantWindowValue(agg string, w ScalarWindow) float64 {
	if w.Count == 0 {
		return 0
	}
	switch agg {
	case "SUM":
		return float64(w.Sum)
	case "COUNT":
		return float64(w.Count)
	case "AVG":
		return float64(w.Sum) / float64(w.Count)
	case "MIN":
		return float64(w.Min)
	case "MAX":
		return float64(w.Max)
	case "VAR": // (n·Σv² − (Σv)²) / n², exact, rounded once
		n, s := big.NewInt(w.Count), big.NewInt(w.Sum)
		num := new(big.Int).Mul(n, w.SumSq)
		v, _ := new(big.Rat).SetFrac(num.Sub(num, s.Mul(s, s)), n.Mul(n, n)).Float64()
		return v
	case "FIRST":
		return float64(w.First)
	case "LAST":
		return float64(w.Last)
	}
	return 0
}

func windowStore(t testing.TB, ts, vals []int64, pageSize int) *storage.Store {
	st := storage.NewStore()
	if err := st.Append("ts", ts, vals, storage.Options{PageSize: pageSize}); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkWindowed runs one windowed query on every execution mode and
// compares each window instance against the re-scan oracle.
func checkWindowed(t testing.TB, ts, vals []int64, pageSize int,
	agg string, sql string, anchor, width, slide int64) {
	t.Helper()
	want := ScalarWindowed(ts, vals, anchor, width, slide, ts[len(ts)-1])
	st := windowStore(t, ts, vals, pageSize)
	for _, mode := range []engine.Mode{engine.ModeSerial, engine.ModeETSQP, engine.ModeETSQPPrune} {
		e := engine.New(st, mode)
		res, err := e.ExecuteSQL(sql)
		if overflows(agg, want) {
			if !errors.Is(err, engine.ErrOverflow) {
				t.Fatalf("%v %q: error %v, want ErrOverflow", mode, sql, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v %q: %v", mode, sql, err)
		}
		if len(res.Windows) != len(want) {
			t.Fatalf("%v %q: %d windows, oracle has %d", mode, sql, len(res.Windows), len(want))
		}
		for i, w := range res.Windows {
			o := want[i]
			if w.Start != o.Start || w.End != o.End {
				t.Fatalf("%v %q window %d: bounds [%d,%d) want [%d,%d)",
					mode, sql, i, w.Start, w.End, o.Start, o.End)
			}
			if w.Count != o.Count {
				t.Fatalf("%v %q window %d: count %d want %d", mode, sql, i, w.Count, o.Count)
			}
			if wv := wantWindowValue(agg, o); w.Value != wv {
				t.Fatalf("%v %q window %d [%d,%d): %s = %v, oracle %v",
					mode, sql, i, w.Start, w.End, agg, w.Value, wv)
			}
		}
	}
}

// TestWindowDifferentialAllAggs checks every aggregate over randomized
// series, window widths and slides (overlapping, tumbling and gapped),
// for both the SW and GROUP BY TIME forms, across all engine modes. Odd
// seeds splice an edge pattern into the walk.
func TestWindowDifferentialAllAggs(t *testing.T) {
	aggs := []string{"SUM", "COUNT", "AVG", "MIN", "MAX", "VAR", "FIRST", "LAST"}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(2000)
		t0 := int64(1_000_000 + rng.Intn(1000))
		ts, vals := genWalk(rng, n, t0)
		pageSize := 128 << rng.Intn(3)
		width := int64(1 + rng.Intn(900))
		slide := int64(1 + rng.Intn(900))
		anchor := t0 + int64(rng.Intn(200)) - 100
		agg := aggs[rng.Intn(len(aggs))]
		if seed%2 == 1 {
			splice(vals, rng.Intn(n-5), edgePatterns[rng.Intn(len(edgePatterns))].rows)
		}

		// SW form: explicit anchor and slide.
		sql := fmt.Sprintf("SELECT %s(A) FROM ts SW(%d, %d, %d)", agg, anchor, width, slide)
		checkWindowed(t, ts, vals, pageSize, agg, sql, anchor, width, slide)

		// GROUP BY TIME form: anchored at the series start.
		sql = fmt.Sprintf("SELECT %s(A) FROM ts GROUP BY TIME(%d, %d)", agg, width, slide)
		checkWindowed(t, ts, vals, pageSize, agg, sql, ts[0], width, slide)

		// Tumbling SW without an explicit slide.
		sql = fmt.Sprintf("SELECT %s(A) FROM ts SW(%d, %d)", agg, anchor, width)
		checkWindowed(t, ts, vals, pageSize, agg, sql, anchor, width, width)
	}
}

// TestWindowDifferentialEdgeTotals splices each edge pattern into a
// column of zeros across a page boundary, on TS2DIFF and on RLBE pages,
// and asks every mode, whole pages and pages cut into slices, at one and
// two workers, for SUM, AVG, VAR and COUNT — plain, per tumbling window
// and per overlapping window — with no filter, a filter every page
// satisfies, a range filter and a != filter, and SUM beside MAX (which
// decodes). Each answer must equal the oracle over the rows the filter
// keeps, whose overflow is judged on each total alone.
func TestWindowDifferentialEdgeTotals(t *testing.T) {
	const n, page = 700, 128
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = 1_000 + int64(i)*10
	}
	span := ts[n-1] - ts[0] + 1
	filters := []struct {
		sql  string
		keep func(v int64) bool
	}{
		{"", func(int64) bool { return true }},
		{"WHERE A >= -9223372036854775808", func(int64) bool { return true }},
		{"WHERE A > -3", func(v int64) bool { return v > -3 }},
		{"WHERE A != 7", func(v int64) bool { return v != 7 }},
	}
	for _, pat := range edgePatterns {
		vals := make([]int64, n)
		splice(vals, 3*page-2, pat.rows) // across the third page boundary
		for _, codec := range []string{"ts2diff", "rlbe"} {
			st := storage.NewStore()
			if err := st.Append("ts", ts, vals, storage.Options{PageSize: page, ValueCodec: codec}); err != nil {
				t.Fatalf("%s %s: %v", pat.name, codec, err)
			}
			for _, f := range filters {
				var fts, fvs []int64
				for i, v := range vals {
					if f.keep(v) {
						fts, fvs = append(fts, ts[i]), append(fvs, v)
					}
				}
				shapes := []struct {
					clause               string
					anchor, width, slide int64
				}{
					{"", ts[0], span, span},
					{"GROUP BY TIME(300)", ts[0], 300, 300},
					{fmt.Sprintf("SW(%d, 400, 130)", ts[0]-50), ts[0] - 50, 400, 130},
				}
				for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeETSQPPrune,
					engine.ModeSerial, engine.ModeSBoost, engine.ModeFastLanes} {
					for _, fs := range []int{0, 3} {
						for _, workers := range []int{1, 2} {
							e := engine.New(st, mode)
							e.ForceSlices, e.Workers = fs, workers
							label := fmt.Sprintf("%s %s %v fs=%d workers=%d", pat.name, codec, mode, fs, workers)
							for _, sh := range shapes {
								want := ScalarWindowed(fts, fvs, sh.anchor, sh.width, sh.slide, ts[n-1])
								for _, agg := range []string{"SUM", "AVG", "VAR", "COUNT"} {
									sql := fmt.Sprintf("SELECT %s(A) FROM ts %s %s", agg, f.sql, sh.clause)
									res, err := e.ExecuteSQL(sql)
									checkEdgeAnswer(t, label, sql, agg, sh.clause == "", want, res, err)
								}
							}
							sql := fmt.Sprintf("SELECT SUM(A), MAX(A) FROM ts %s", f.sql)
							res, err := e.ExecuteSQL(sql)
							checkEdgeAnswer(t, label, sql, "SUM", true,
								ScalarWindowed(fts, fvs, ts[0], span, span, ts[n-1]), res, err)
						}
					}
				}
			}
		}
	}
}

// checkEdgeAnswer compares one answer of TestWindowDifferentialEdgeTotals
// with the oracle's windows: a plain aggregate is its one window.
func checkEdgeAnswer(t *testing.T, label, sql, agg string, plain bool, want []ScalarWindow, res *engine.Result, err error) {
	t.Helper()
	if overflows(agg, want) {
		if !errors.Is(err, engine.ErrOverflow) {
			t.Fatalf("%s %q: error %v, want ErrOverflow", label, sql, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s %q: %v", label, sql, err)
	}
	if plain {
		if got := res.Aggregates[agg+"(A)"]; len(want) != 1 || got != wantWindowValue(agg, want[0]) {
			t.Fatalf("%s %q: %v, oracle %+v", label, sql, got, want)
		}
		return
	}
	if len(res.Windows) != len(want) {
		t.Fatalf("%s %q: %d windows, oracle has %d", label, sql, len(res.Windows), len(want))
	}
	for i, w := range res.Windows {
		if o := want[i]; w.Count != o.Count || w.Value != wantWindowValue(agg, o) {
			t.Fatalf("%s %q window %d [%d,%d): (%v, %d) want (%v, %d)",
				label, sql, i, o.Start, o.End, w.Value, w.Count, wantWindowValue(agg, o), o.Count)
		}
	}
}

// TestWindowDifferentialTimeBounds checks windowed queries under WHERE
// TIME bounds: the window set clips at the upper bound and only rows
// inside [t1, t2] aggregate. Odd seeds splice an edge pattern into the
// walk.
func TestWindowDifferentialTimeBounds(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts, vals := genWalk(rng, 1200, 5_000)
		t1 := ts[100+rng.Intn(200)]
		t2 := ts[700+rng.Intn(400)]
		width := int64(1 + rng.Intn(300))
		slide := int64(1 + rng.Intn(300))
		if seed%2 == 1 {
			splice(vals, rng.Intn(1195), edgePatterns[rng.Intn(len(edgePatterns))].rows)
		}

		// Oracle sees only the rows inside [t1, t2]; windows enumerate to
		// min(series end, t2) — here t2.
		var fts, fvs []int64
		for i := range ts {
			if ts[i] >= t1 && ts[i] <= t2 {
				fts = append(fts, ts[i])
				fvs = append(fvs, vals[i])
			}
		}
		want := ScalarWindowed(fts, fvs, t1, width, slide, t2)

		st := windowStore(t, ts, vals, 256)
		sql := fmt.Sprintf(
			"SELECT SUM(A) FROM ts WHERE TIME >= %d AND TIME <= %d GROUP BY TIME(%d, %d)",
			t1, t2, width, slide)
		for _, mode := range []engine.Mode{engine.ModeSerial, engine.ModeETSQP, engine.ModeETSQPPrune} {
			e := engine.New(st, mode)
			res, err := e.ExecuteSQL(sql)
			if overflows("SUM", want) {
				if !errors.Is(err, engine.ErrOverflow) {
					t.Fatalf("%v: error %v, want ErrOverflow", mode, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if len(res.Windows) != len(want) {
				t.Fatalf("%v: %d windows, oracle has %d", mode, len(res.Windows), len(want))
			}
			for i, w := range res.Windows {
				if w.Count != want[i].Count || w.Value != float64(want[i].Sum) {
					t.Fatalf("%v window %d: (%v, %d) want (%d, %d)",
						mode, i, w.Value, w.Count, want[i].Sum, want[i].Count)
				}
			}
		}
	}
}

// TestWindowDifferentialValueFilter checks windows under value
// predicates — a range that straddles the pages' values, a range every
// page satisfies (so jobs fuse despite the predicate) and a != with a
// range — in every mode, with whole pages and with pages cut into
// slices, against the re-scan oracle over the rows the predicate keeps.
// A window spanning the whole series must then equal the plain
// aggregate with the same WHERE bit for bit: both are one window over
// the same segments. The walk runs as drawn and moved to start at 0, so
// the fused forms see sums that fit int64 whatever base it drew.
func TestWindowDifferentialValueFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ts, vals := genWalk(rng, 1500, 2_000_000)
	moved := make([]int64, len(vals))
	for i, v := range vals {
		moved[i] = v - vals[0] // a walk's steps, so no wrap
	}
	checkValueFilter(t, ts, vals)
	checkValueFilter(t, ts, moved)
}

// checkValueFilter is TestWindowDifferentialValueFilter over one value
// column.
func checkValueFilter(t *testing.T, ts, vals []int64) {
	t.Helper()
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	preds := []struct {
		sql  string
		keep func(v int64) bool
	}{
		{fmt.Sprintf("A > %d", sorted[len(sorted)/2]),
			func(v int64) bool { return v > sorted[len(sorted)/2] }},
		{fmt.Sprintf("A >= %d AND A <= %d", sorted[0], sorted[len(sorted)-1]),
			func(int64) bool { return true }},
		{fmt.Sprintf("A != %d AND A > %d", vals[700], sorted[len(sorted)/4]),
			func(v int64) bool { return v != vals[700] && v > sorted[len(sorted)/4] }},
	}
	span := ts[len(ts)-1] - ts[0] + 1
	for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeETSQPPrune,
		engine.ModeSerial, engine.ModeSBoost, engine.ModeFastLanes} {
		opts := storage.Options{PageSize: 256}
		if mode == engine.ModeFastLanes {
			opts.ValueCodec = "fastlanes"
		}
		st := storage.NewStore()
		if err := st.Append("ts", ts, vals, opts); err != nil {
			t.Fatal(err)
		}
		for _, fs := range []int{0, 3} {
			e := engine.New(st, mode)
			e.ForceSlices = fs
			for pi, pr := range preds {
				var fts, fvs []int64
				for i, v := range vals {
					if pr.keep(v) {
						fts, fvs = append(fts, ts[i]), append(fvs, v)
					}
				}
				for ai, agg := range []string{"SUM", "COUNT", "AVG", "MIN", "MAX", "VAR"} {
					width := int64(500 + 300*ai + 100*pi)
					for _, w := range []struct {
						clause      string
						anchor, hop int64
					}{
						{fmt.Sprintf("SW(%d, %d, %d)", ts[0]-50, width, width/3), ts[0] - 50, width / 3},
						{fmt.Sprintf("GROUP BY TIME(%d)", width), ts[0], width},
					} {
						sql := fmt.Sprintf("SELECT %s(A) FROM ts WHERE %s %s", agg, pr.sql, w.clause)
						want := ScalarWindowed(fts, fvs, w.anchor, width, w.hop, ts[len(ts)-1])
						res, err := e.ExecuteSQL(sql)
						if overflows(agg, want) {
							if !errors.Is(err, engine.ErrOverflow) {
								t.Fatalf("%v fs=%d %q: error %v, want ErrOverflow", mode, fs, sql, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%v fs=%d %q: %v", mode, fs, sql, err)
						}
						// The fused closed forms decline, by design, where a sum
						// leaves int64; COUNT's as well.
						fused := pi == 1 && ai < 3 && mode <= engine.ModeETSQPPrune && !overflows("SUM", want)
						if fused && res.Stats.ValuesFused == 0 {
							t.Fatalf("%v fs=%d %q: no job fused under an all-pages range", mode, fs, sql)
						}
						if len(res.Windows) != len(want) {
							t.Fatalf("%v fs=%d %q: %d windows, oracle has %d",
								mode, fs, sql, len(res.Windows), len(want))
						}
						for i, got := range res.Windows {
							o := want[i]
							if got.Count != o.Count || got.Value != wantWindowValue(agg, o) {
								t.Fatalf("%v fs=%d %q window %d [%d,%d): (%v, %d) want (%v, %d)",
									mode, fs, sql, i, o.Start, o.End, got.Value, got.Count,
									wantWindowValue(agg, o), o.Count)
							}
						}
					}

					plain, errP := e.ExecuteSQL(fmt.Sprintf("SELECT %s(A) FROM ts WHERE %s", agg, pr.sql))
					one, errO := e.ExecuteSQL(fmt.Sprintf("SELECT %s(A) FROM ts WHERE %s SW(%d, %d)",
						agg, pr.sql, ts[0], span))
					if errors.Is(errP, engine.ErrOverflow) && errors.Is(errO, engine.ErrOverflow) {
						continue
					}
					if errP != nil || errO != nil {
						t.Fatalf("%v fs=%d %s WHERE %s: plain %v, spanning window %v", mode, fs, agg, pr.sql, errP, errO)
					}
					key := agg + "(A)"
					if len(one.Windows) != 1 || one.Windows[0].Value != plain.Aggregates[key] {
						t.Fatalf("%v fs=%d %s WHERE %s: spanning window %+v, plain %v",
							mode, fs, agg, pr.sql, one.Windows, plain.Aggregates[key])
					}
				}
			}
		}
	}
}

// sharedGrid builds two series sampled from one timestamp grid so their
// merge has all three row shapes (left-only, right-only, both) and the
// join is non-trivial.
func sharedGrid(rng *rand.Rand, n int) (lts, lvs, rts, rvs []int64) {
	t := int64(10_000)
	for i := 0; i < n; i++ {
		t += 1 + int64(rng.Intn(10))
		v := int64(rng.Intn(1<<21)) - 1<<20
		if rng.Intn(10) < 7 {
			lts = append(lts, t)
			lvs = append(lvs, v)
		}
		if rng.Intn(10) < 7 {
			rts = append(rts, t)
			rvs = append(rvs, v+1)
		}
	}
	return lts, lvs, rts, rvs
}

// twoSeriesStore stores the shared grid as ts1 and ts2, plus ts3: ts2's
// timestamps with its values bent at c (bendAt).
func twoSeriesStore(t testing.TB, lts, lvs, rts, rvs []int64, c int64, pageSize int) *storage.Store {
	st := storage.NewStore()
	for _, s := range []struct {
		name     string
		ts, vals []int64
	}{{"ts1", lts, lvs}, {"ts2", rts, rvs}, {"ts3", rts, bendAt(rvs, c)}} {
		if err := st.Append(s.name, s.ts, s.vals, storage.Options{PageSize: pageSize}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// bendAt negates the ts2 values from c+1 up. A joined ts2 value is its
// ts1 partner plus one (sharedGrid), so joined with ts1 the bent series
// reads b = a+1 where a < c and b = -(a+1) elsewhere: CORR under
// WHERE ts1.A < c is exactly 1 only if the predicate is applied.
func bendAt(rvs []int64, c int64) []int64 {
	out := make([]int64, len(rvs))
	for i, r := range rvs {
		out[i] = r
		if r-1 >= c {
			out[i] = -r
		}
	}
	return out
}

// checkScanCorr checks the row and CORR shapes under value predicates
// and LIMIT: a value- and time-filtered scan of ts1, with and without
// LIMIT, against a plain loop, UNION and join under LIMIT column by
// column against the first rows of ScalarConcat and ScalarJoin, and
// CORR(ts1.A, ts3.A) under WHERE ts1.A < c
// against a scalar Pearson over the filtered oracle join (an empty or
// constant side must be an error).
func checkScanCorr(t testing.TB, e *engine.Engine, lts, lvs, rts, rvs []int64, c int64, limit int) {
	t.Helper()
	t1, t2 := lts[len(lts)/4], lts[3*len(lts)/4]
	var scanT, scanV []int64
	for i := range lts {
		if lts[i] >= t1 && lts[i] <= t2 && lvs[i] >= c {
			scanT, scanV = append(scanT, lts[i]), append(scanV, lvs[i])
		}
	}
	var mergeT, mergeL, mergeR []int64
	for _, o := range ScalarConcat(lts, lvs, rts, rvs) {
		mergeT, mergeL, mergeR = append(mergeT, o.Time), append(mergeL, o.L), append(mergeR, o.R)
	}
	var joinT, joinL, joinR []int64
	for _, o := range ScalarJoin(lts, lvs, rts, rvs) {
		joinT, joinL, joinR = append(joinT, o.Time), append(joinL, o.L), append(joinR, o.R)
	}
	// The oracle's first k rows, every column cut alike.
	head := func(k int, cols ...[]int64) [][]int64 {
		for j := range cols {
			cols[j] = cols[j][:min(k, len(cols[j]))]
		}
		return cols
	}
	scan := fmt.Sprintf("SELECT * FROM ts1 WHERE A >= %d AND TIME >= %d AND TIME <= %d", c, t1, t2)
	for _, q := range []struct {
		sql  string
		want [][]int64 // the time column, then one column per output column
	}{
		{scan, [][]int64{scanT, scanV}},
		{fmt.Sprintf("%s LIMIT %d", scan, limit), head(limit, scanT, scanV)},
		{fmt.Sprintf("SELECT * FROM ts1 UNION ts2 ORDER BY TIME LIMIT %d", limit), head(limit, mergeT, mergeL, mergeR)},
		{fmt.Sprintf("SELECT * FROM ts1, ts2 LIMIT %d", limit), head(limit, joinT, joinL, joinR)},
	} {
		res, err := e.ExecuteSQL(q.sql)
		if err != nil {
			t.Fatalf("%v %q: %v", e.Mode, q.sql, err)
		}
		got := append([][]int64{res.Time}, res.Values...)
		if len(got) != len(q.want) {
			t.Fatalf("%v %q: %d columns, oracle has %d", e.Mode, q.sql, len(got), len(q.want))
		}
		for j, col := range got {
			w := q.want[j]
			if len(col) != len(w) {
				t.Fatalf("%v %q column %d: %d rows, oracle has %d", e.Mode, q.sql, j, len(col), len(w))
			}
			for i := range col {
				if col[i] != w[i] {
					t.Fatalf("%v %q row %d column %d: %d want %d", e.Mode, q.sql, i, j, col[i], w[i])
				}
			}
		}
	}

	var pairs []JoinedRow
	for _, r := range ScalarJoin(lts, lvs, rts, bendAt(rvs, c)) {
		if r.L < c {
			pairs = append(pairs, r)
		}
	}
	sql := fmt.Sprintf("SELECT CORR(ts1.A, ts3.A) FROM ts1, ts3 WHERE ts1.A < %d", c)
	res, err := e.ExecuteSQL(sql)
	r, ok, _ := exactCorr(pairs)
	if !ok {
		if err == nil {
			t.Fatalf("%v %q over %d pairs: %v, want an error", e.Mode, sql, len(pairs), res.Aggregates)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v %q: %v", e.Mode, sql, err)
	}
	if got := res.Aggregates["CORR(A,B)"]; got != r {
		t.Fatalf("%v %q: %v, oracle %v over %d pairs", e.Mode, sql, got, r, len(pairs))
	}
}

// TestConcatJoinDifferential checks UNION ... ORDER BY TIME against the
// timestamp-set oracle, the natural join (star and sum projections)
// against the nested-loop oracle, and the filtered scan and CORR shapes
// (checkScanCorr), across all engine modes.
func TestConcatJoinDifferential(t *testing.T) {
	for seed := int64(20); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lts, lvs, rts, rvs := sharedGrid(rng, 400+rng.Intn(600))
		pageSize := 128 << rng.Intn(3)
		c, limit := lvs[rng.Intn(len(lvs))], 1+rng.Intn(40)
		st := twoSeriesStore(t, lts, lvs, rts, rvs, c, pageSize)
		wantMerge := ScalarConcat(lts, lvs, rts, rvs)
		wantJoin := ScalarJoin(lts, lvs, rts, rvs)
		for _, mode := range []engine.Mode{engine.ModeSerial, engine.ModeETSQP, engine.ModeETSQPPrune} {
			e := engine.New(st, mode)

			res, err := e.ExecuteSQL("SELECT * FROM ts1 UNION ts2 ORDER BY TIME")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Time) != len(wantMerge) {
				t.Fatalf("%v merge: %d rows, oracle has %d", mode, len(res.Time), len(wantMerge))
			}
			for i, tt := range res.Time {
				o, l, r := wantMerge[i], res.Values[0][i], res.Values[1][i]
				if tt != o.Time || l != o.L || r != o.R {
					t.Fatalf("%v merge row %d: %d [%d %d] want %+v", mode, i, tt, l, r, o)
				}
			}

			res, err = e.ExecuteSQL("SELECT * FROM ts1, ts2")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Time) != len(wantJoin) {
				t.Fatalf("%v join: %d rows, oracle has %d", mode, len(res.Time), len(wantJoin))
			}
			for i, tt := range res.Time {
				o, l, r := wantJoin[i], res.Values[0][i], res.Values[1][i]
				if tt != o.Time || l != o.L || r != o.R {
					t.Fatalf("%v join row %d: %d [%d %d] want %+v", mode, i, tt, l, r, o)
				}
			}

			res, err = e.ExecuteSQL("SELECT ts1.A + ts2.A FROM ts1, ts2")
			if err != nil {
				t.Fatal(err)
			}
			for i, tt := range res.Time {
				o, v := wantJoin[i], res.Values[0][i]
				if tt != o.Time || v != o.L+o.R {
					t.Fatalf("%v join-sum row %d: %d [%d] want %+v", mode, i, tt, v, o)
				}
			}

			checkScanCorr(t, e, lts, lvs, rts, rvs, c, limit)
		}
	}
}

// FuzzWindowDifferential fuzzes window geometry (width, slide, anchor)
// and the aggregate against the re-scan oracle on the ETSQP mode. The
// low three bits of aggIdx pick the aggregate; the next three, when not
// zero, an edge pattern spliced into the walk, and bit 6 a column of
// zeros in place of the walk, so that a window holding the whole
// pattern totals exactly its rows.
func FuzzWindowDifferential(f *testing.F) {
	f.Add(int64(1), uint16(50), uint16(20), uint8(0), int16(0))
	f.Add(int64(2), uint16(7), uint16(90), uint8(3), int16(-50))
	f.Add(int64(3), uint16(128), uint16(128), uint8(5), int16(40))
	for k := range edgePatterns {
		f.Add(int64(4+k), uint16(300), uint16(300), uint8(64|(k+1)<<3), int16(0))   // SUM, zeros
		f.Add(int64(4+k), uint16(90), uint16(40), uint8(64|(k+1)<<3|2), int16(-30)) // AVG, zeros
		f.Add(int64(4+k), uint16(500), uint16(170), uint8((k+1)<<3|5), int16(10))   // VAR, walk
	}
	aggs := []string{"SUM", "COUNT", "AVG", "MIN", "MAX", "VAR", "FIRST", "LAST"}
	f.Fuzz(func(t *testing.T, seed int64, widthRaw, slideRaw uint16, aggIdx uint8, anchorOff int16) {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(900)
		t0 := int64(1_000_000)
		ts, vals := genWalk(rng, n, t0)
		width := int64(widthRaw%1000) + 1
		slide := int64(slideRaw%1000) + 1
		anchor := t0 + int64(anchorOff)
		agg := aggs[int(aggIdx)%len(aggs)]
		if aggIdx&64 != 0 {
			clear(vals)
		}
		if k := int(aggIdx>>3&7) % (len(edgePatterns) + 1); k > 0 {
			splice(vals, rng.Intn(n-5), edgePatterns[k-1].rows)
		}
		sql := fmt.Sprintf("SELECT %s(A) FROM ts SW(%d, %d, %d)", agg, anchor, width, slide)
		want := ScalarWindowed(ts, vals, anchor, width, slide, ts[len(ts)-1])
		st := windowStore(t, ts, vals, 256)
		e := engine.New(st, engine.ModeETSQP)
		res, err := e.ExecuteSQL(sql)
		if overflows(agg, want) {
			if !errors.Is(err, engine.ErrOverflow) {
				t.Fatalf("%q: error %v, want ErrOverflow", sql, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(res.Windows) != len(want) {
			t.Fatalf("%q: %d windows, oracle has %d", sql, len(res.Windows), len(want))
		}
		for i, w := range res.Windows {
			o := want[i]
			if w.Count != o.Count || w.Value != wantWindowValue(agg, o) {
				t.Fatalf("%q window %d [%d,%d): (%v, %d) want (%v, %d)",
					sql, i, o.Start, o.End, w.Value, w.Count, wantWindowValue(agg, o), o.Count)
			}
		}
	})
}

// FuzzMergeJoinDifferential fuzzes the shared-grid shape of two series
// and checks the streaming merge and join, and the filtered scan and
// CORR shapes, against the oracles, with page pruning off and on.
func FuzzMergeJoinDifferential(f *testing.F) {
	f.Add(int64(1), uint16(300))
	f.Add(int64(7), uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%600) + 20
		lts, lvs, rts, rvs := sharedGrid(rng, n)
		if len(lts) == 0 || len(rts) == 0 {
			t.Skip("empty side")
		}
		c, limit := lvs[rng.Intn(len(lvs))], 1+rng.Intn(40)
		st := twoSeriesStore(t, lts, lvs, rts, rvs, c, 128)
		for _, mode := range []engine.Mode{engine.ModeETSQP, engine.ModeETSQPPrune} {
			e := engine.New(st, mode)

			wantMerge := ScalarConcat(lts, lvs, rts, rvs)
			res, err := e.ExecuteSQL("SELECT * FROM ts1 UNION ts2 ORDER BY TIME")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Time) != len(wantMerge) {
				t.Fatalf("%v merge: %d rows, oracle has %d", mode, len(res.Time), len(wantMerge))
			}
			for i, tt := range res.Time {
				o, l, r := wantMerge[i], res.Values[0][i], res.Values[1][i]
				if tt != o.Time || l != o.L || r != o.R {
					t.Fatalf("%v merge row %d: %d [%d %d] want %+v", mode, i, tt, l, r, o)
				}
			}

			wantJoin := ScalarJoin(lts, lvs, rts, rvs)
			res, err = e.ExecuteSQL("SELECT * FROM ts1, ts2")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Time) != len(wantJoin) {
				t.Fatalf("%v join: %d rows, oracle has %d", mode, len(res.Time), len(wantJoin))
			}
			for i, tt := range res.Time {
				o, l, r := wantJoin[i], res.Values[0][i], res.Values[1][i]
				if tt != o.Time || l != o.L || r != o.R {
					t.Fatalf("%v join row %d: %d [%d %d] want %+v", mode, i, tt, l, r, o)
				}
			}

			checkScanCorr(t, e, lts, lvs, rts, rvs, c, limit)
		}
	})
}

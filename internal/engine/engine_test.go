package engine

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"etsqp/internal/storage"

	_ "etsqp/internal/encoding/gorilla"
	_ "etsqp/internal/encoding/rlbe"
	_ "etsqp/internal/encoding/sprintz"
	_ "etsqp/internal/encoding/ts2diff"
	_ "etsqp/internal/fastlanes"
)

var allModes = []Mode{ModeETSQP, ModeETSQPPrune, ModeSerial, ModeSBoost, ModeFastLanes}

// testData builds deterministic series columns.
func testData(n int, seed int64, regular bool) (ts, vals []int64) {
	rng := rand.New(rand.NewSource(seed))
	ts = make([]int64, n)
	vals = make([]int64, n)
	cur := int64(1_000_000)
	v := int64(500)
	for i := 0; i < n; i++ {
		ts[i] = cur
		if regular {
			cur += 100
		} else {
			cur += rng.Int63n(150) + 50
		}
		v += rng.Int63n(21) - 10
		vals[i] = v
	}
	return ts, vals
}

// storeFor builds a store with the codec appropriate to the mode.
func storeFor(t testing.TB, mode Mode, ts, vals []int64, pageSize int) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	opts := storage.Options{PageSize: pageSize}
	if mode == ModeFastLanes {
		opts.ValueCodec = "fastlanes"
	}
	if err := st.Append("ts", ts, vals, opts); err != nil {
		t.Fatal(err)
	}
	return st
}

func sumRange(ts, vals []int64, t1, t2 int64, pred func(int64) bool) (sum int64, count int64) {
	for i := range ts {
		if ts[i] >= t1 && ts[i] <= t2 && pred(vals[i]) {
			sum += vals[i]
			count++
		}
	}
	return sum, count
}

func TestAggAllModesMatchReference(t *testing.T) {
	ts, vals := testData(20_000, 1, false)
	t1 := ts[3000]
	t2 := ts[17_000]
	wantSum, wantCount := sumRange(ts, vals, t1, t2, func(int64) bool { return true })
	for _, mode := range allModes {
		for _, workers := range []int{1, 4} {
			st := storeFor(t, mode, ts, vals, 2048)
			e := New(st, mode)
			e.Workers = workers
			sql := fmt.Sprintf("SELECT SUM(A), COUNT(A), AVG(A), MIN(A), MAX(A), VAR(A) FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2)
			res, err := e.ExecuteSQL(sql)
			if err != nil {
				t.Fatalf("%v/%d: %v", mode, workers, err)
			}
			if got := res.Aggregates["SUM(A)"]; got != float64(wantSum) {
				t.Fatalf("%v/%d: SUM %v want %d", mode, workers, got, wantSum)
			}
			if got := res.Aggregates["COUNT(A)"]; got != float64(wantCount) {
				t.Fatalf("%v/%d: COUNT %v want %d", mode, workers, got, wantCount)
			}
			if got := res.Aggregates["AVG(A)"]; math.Abs(got-float64(wantSum)/float64(wantCount)) > 1e-9 {
				t.Fatalf("%v/%d: AVG %v", mode, workers, got)
			}
			// MIN/MAX against scan.
			var minV, maxV int64 = 1 << 62, -(1 << 62)
			for i := range ts {
				if ts[i] >= t1 && ts[i] <= t2 {
					if vals[i] < minV {
						minV = vals[i]
					}
					if vals[i] > maxV {
						maxV = vals[i]
					}
				}
			}
			if got := res.Aggregates["MIN(A)"]; got != float64(minV) {
				t.Fatalf("%v/%d: MIN %v want %d", mode, workers, got, minV)
			}
			if got := res.Aggregates["MAX(A)"]; got != float64(maxV) {
				t.Fatalf("%v/%d: MAX %v want %d", mode, workers, got, maxV)
			}
		}
	}
}

func TestRegularSeriesUsesConstantIntervalPath(t *testing.T) {
	ts, vals := testData(10_000, 2, true)
	t1, t2 := ts[100], ts[9000]
	wantSum, _ := sumRange(ts, vals, t1, t2, func(int64) bool { return true })
	for _, mode := range allModes {
		st := storeFor(t, mode, ts, vals, 1024)
		e := New(st, mode)
		res, err := e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A) FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Aggregates["SUM(A)"]; got != float64(wantSum) {
			t.Fatalf("%v: SUM %v want %d", mode, got, wantSum)
		}
	}
}

func TestQ3ValueFilterAllModes(t *testing.T) {
	ts, vals := testData(20_000, 3, false)
	thresh := vals[0] + 5
	wantSum, _ := sumRange(ts, vals, math.MinInt64+1, math.MaxInt64-1, func(v int64) bool { return v > thresh })
	sql := fmt.Sprintf("SELECT SUM(A) FROM (SELECT * FROM ts WHERE A > %d)", thresh)
	for _, mode := range allModes {
		st := storeFor(t, mode, ts, vals, 2048)
		e := New(st, mode)
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Aggregates["SUM(A)"]; got != float64(wantSum) {
			t.Fatalf("%v: got %v want %d", mode, got, wantSum)
		}
	}
}

func TestPrunePagesByValueStats(t *testing.T) {
	// First half of the series is low, second half high: a selective
	// high filter must prune the low pages in prune mode only.
	n := 16_384
	ts := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(i) * 1000
		if i < n/2 {
			vals[i] = int64(i % 50)
		} else {
			vals[i] = 10_000 + int64(i%50)
		}
	}
	var want int64
	for _, v := range vals {
		if v > 9000 {
			want += v
		}
	}
	sql := "SELECT SUM(A) FROM (SELECT * FROM ts WHERE A > 9000)"
	for _, mode := range []Mode{ModeETSQP, ModeETSQPPrune} {
		st := storeFor(t, mode, ts, vals, 1024)
		e := New(st, mode)
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Aggregates["SUM(A)"]; got != float64(want) {
			t.Fatalf("%v: got %v want %d", mode, got, want)
		}
		if mode == ModeETSQPPrune && res.Stats.PagesPruned < 7 {
			t.Fatalf("prune mode pruned only %d pages", res.Stats.PagesPruned)
		}
		if mode == ModeETSQP && res.Stats.PagesPruned != 0 {
			t.Fatalf("plain mode must not prune, got %d", res.Stats.PagesPruned)
		}
		// Pruned pages still count toward loaded tuples (throughput).
		if res.Stats.TuplesLoaded != int64(n) {
			t.Fatalf("%v: TuplesLoaded = %d want %d", mode, res.Stats.TuplesLoaded, n)
		}
	}
}

func TestSlidingWindowQ1Q2(t *testing.T) {
	ts, vals := testData(10_000, 4, true) // regular, interval 100
	for _, mode := range allModes {
		st := storeFor(t, mode, ts, vals, 1500)
		e := New(st, mode)
		dt := int64(100 * 1000) // 1000 points per window
		res, err := e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A) FROM ts SW(%d, %d)", ts[0], dt))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Windows) != 10 {
			t.Fatalf("%v: windows = %d want 10", mode, len(res.Windows))
		}
		for wi, w := range res.Windows {
			var want int64
			var count int64
			for i := range ts {
				if ts[i] >= w.Start && ts[i] < w.End {
					want += vals[i]
					count++
				}
			}
			if w.Value != float64(want) || w.Count != count {
				t.Fatalf("%v window %d: got %v/%d want %d/%d", mode, wi, w.Value, w.Count, want, count)
			}
		}
		// AVG windows.
		res2, err := e.ExecuteSQL(fmt.Sprintf("SELECT AVG(A) FROM ts SW(%d, %d)", ts[0], dt))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for wi := range res2.Windows {
			if res2.Windows[wi].Count == 0 {
				continue
			}
			want := res.Windows[wi].Value / float64(res.Windows[wi].Count)
			if math.Abs(res2.Windows[wi].Value-want) > 1e-9 {
				t.Fatalf("%v window %d: AVG %v want %v", mode, wi, res2.Windows[wi].Value, want)
			}
		}
	}
}

func TestSlidingWindowIrregularTimestamps(t *testing.T) {
	ts, vals := testData(5000, 5, false)
	for _, mode := range []Mode{ModeETSQP, ModeSerial} {
		st := storeFor(t, mode, ts, vals, 600)
		e := New(st, mode)
		dt := (ts[len(ts)-1] - ts[0]) / 7
		res, err := e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A) FROM ts SW(%d, %d)", ts[0], dt))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for wi, w := range res.Windows {
			var want int64
			for i := range ts {
				if ts[i] >= w.Start && ts[i] < w.End {
					want += vals[i]
				}
			}
			if w.Value != float64(want) {
				t.Fatalf("%v window %d: got %v want %d", mode, wi, w.Value, want)
			}
		}
	}
}

func TestScanStar(t *testing.T) {
	ts, vals := testData(3000, 6, false)
	st := storeFor(t, ModeETSQP, ts, vals, 512)
	e := New(st, ModeETSQP)
	t1, t2 := ts[100], ts[200]
	res, err := e.ExecuteSQL(fmt.Sprintf("SELECT * FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Time) != 101 {
		t.Fatalf("rows = %d want 101", len(res.Time))
	}
	for i, tt := range res.Time {
		if tt != ts[100+i] || res.Values[0][i] != vals[100+i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestMergeQ5(t *testing.T) {
	ts1, v1 := testData(2000, 7, false)
	ts2 := make([]int64, 1500)
	v2 := make([]int64, 1500)
	for i := range ts2 {
		ts2[i] = ts1[0] + int64(i)*137 + 13
		v2[i] = int64(i)
	}
	for _, mode := range allModes {
		st := storage.NewStore()
		opts := storage.Options{PageSize: 300}
		if mode == ModeFastLanes {
			opts.ValueCodec = "fastlanes"
		}
		if err := st.Append("ts1", ts1, v1, opts); err != nil {
			t.Fatal(err)
		}
		if err := st.Append("ts2", ts2, v2, opts); err != nil {
			t.Fatal(err)
		}
		e := New(st, mode)
		res, err := e.ExecuteSQL("SELECT * FROM ts1 UNION ts2 ORDER BY TIME")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Time-ordered output covering both series.
		joint := map[int64]bool{}
		for _, tt := range ts1 {
			joint[tt] = true
		}
		for _, tt := range ts2 {
			joint[tt] = true
		}
		if len(res.Time) != len(joint) {
			t.Fatalf("%v: rows = %d want %d", mode, len(res.Time), len(joint))
		}
		for i := 1; i < len(res.Time); i++ {
			if res.Time[i] <= res.Time[i-1] {
				t.Fatalf("%v: output not time ordered at %d", mode, i)
			}
		}
	}
}

func TestJoinQ4Q6(t *testing.T) {
	// Overlapping timestamps every third point.
	n := 3000
	ts1 := make([]int64, n)
	v1 := make([]int64, n)
	ts2 := make([]int64, n)
	v2 := make([]int64, n)
	for i := 0; i < n; i++ {
		ts1[i] = int64(i) * 3
		v1[i] = int64(i)
		ts2[i] = int64(i) * 2
		v2[i] = int64(i) * 10
	}
	for _, mode := range allModes {
		st := storage.NewStore()
		opts := storage.Options{PageSize: 700}
		if mode == ModeFastLanes {
			opts.ValueCodec = "fastlanes"
		}
		if err := st.Append("ts1", ts1[1:], v1[1:], opts); err != nil { // skip t=0 to offset
			t.Fatal(err)
		}
		if err := st.Append("ts2", ts2[1:], v2[1:], opts); err != nil {
			t.Fatal(err)
		}
		e := New(st, mode)
		// Q6: natural join rows.
		res, err := e.ExecuteSQL("SELECT * FROM ts1, ts2")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Expected: timestamps divisible by 6 (excluding 0), up to min range.
		var want []int64
		maxT := ts1[n-1]
		if ts2[n-1] < maxT {
			maxT = ts2[n-1]
		}
		for tt := int64(6); tt <= maxT; tt += 6 {
			want = append(want, tt)
		}
		if len(res.Time) != len(want) {
			t.Fatalf("%v: join rows = %d want %d", mode, len(res.Time), len(want))
		}
		for i, tt := range res.Time {
			if tt != want[i] {
				t.Fatalf("%v: row %d time %d want %d", mode, i, tt, want[i])
			}
			if l, r := res.Values[0][i], res.Values[1][i]; l != tt/3 || r != tt/2*10 {
				t.Fatalf("%v: row %d values [%d %d]", mode, i, l, r)
			}
		}
		// Q4: add projection.
		res4, err := e.ExecuteSQL("SELECT ts1.A + ts2.A FROM ts1, ts2")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res4.Time) != len(want) {
			t.Fatalf("%v: Q4 rows = %d", mode, len(res4.Time))
		}
		for i, v := range res4.Values[0] {
			if v != want[i]/3+want[i]/2*10 {
				t.Fatalf("%v: Q4 row %d = %d", mode, i, v)
			}
		}
	}
}

func TestErrorsAndEdgeCases(t *testing.T) {
	ts, vals := testData(100, 8, true)
	st := storeFor(t, ModeETSQP, ts, vals, 50)
	e := New(st, ModeETSQP)
	if _, err := e.ExecuteSQL("SELECT SUM(A) FROM nosuch"); err == nil {
		t.Fatal("unknown series must fail")
	}
	if _, err := e.ExecuteSQL("SELECT bogus FROM ts"); err == nil {
		t.Fatal("parse error must propagate")
	}
	if _, err := e.ExecuteSQL("SELECT SUM(TIME) FROM ts"); err == nil {
		t.Fatal("aggregates over TIME unsupported")
	}
	if _, err := e.ExecuteSQL("SELECT A FROM ts"); err == nil {
		t.Fatal("non-aggregate non-star item unsupported")
	}
	// Empty result range.
	res, err := e.ExecuteSQL("SELECT SUM(A), COUNT(A) FROM ts WHERE TIME > 999999999999")
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregates["SUM(A)"] != 0 || res.Aggregates["COUNT(A)"] != 0 {
		t.Fatalf("empty range: %+v", res.Aggregates)
	}
	// MIN over empty input errors.
	if _, err := e.ExecuteSQL("SELECT MIN(A) FROM ts WHERE TIME > 999999999999"); err == nil {
		t.Fatal("MIN over empty must fail")
	}
	if ModeETSQP.String() != "ETSQP" || Mode(99).String() != "Unknown" {
		t.Fatal("Mode.String wrong")
	}
}

func TestRLBEFusedPath(t *testing.T) {
	// Repeat-heavy data stored as RLBE exercises the Delta-Repeat fused
	// sum (Section IV) end to end.
	n := 10_000
	ts := make([]int64, n)
	vals := make([]int64, n)
	v := int64(100)
	for i := 0; i < n; i++ {
		ts[i] = int64(i) * 1000
		if i%64 == 0 {
			v += int64(i % 7)
		}
		vals[i] = v
	}
	st := storage.NewStore()
	if err := st.Append("ts", ts, vals, storage.Options{PageSize: 2000, ValueCodec: "rlbe"}); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, x := range vals {
		want += x
	}
	for _, mode := range []Mode{ModeETSQP, ModeSerial} {
		e := New(st, mode)
		res, err := e.ExecuteSQL("SELECT SUM(A) FROM ts WHERE TIME >= 0 AND TIME <= 99999999999")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Aggregates["SUM(A)"]; got != float64(want) {
			t.Fatalf("%v: got %v want %d", mode, got, want)
		}
	}
}

// exactVar is the population variance of vals, Σ(v − mean)² / n, in
// rationals, rounded once: the correctly rounded value VAR must return.
func exactVar(vals []int64) float64 {
	n := big.NewRat(int64(len(vals)), 1)
	mean := new(big.Rat)
	for _, v := range vals {
		mean.Add(mean, big.NewRat(v, 1))
	}
	mean.Quo(mean, n)
	sum, d := new(big.Rat), new(big.Rat)
	for _, v := range vals {
		d.Sub(big.NewRat(v, 1), mean)
		sum.Add(sum, d.Mul(d, d))
	}
	f, _ := sum.Quo(sum, n).Float64()
	return f
}

func TestVarAggregation(t *testing.T) {
	ts, vals := testData(5000, 10, false)
	st := storeFor(t, ModeETSQP, ts, vals, 1000)
	e := New(st, ModeETSQP)
	res, err := e.ExecuteSQL("SELECT VAR(A) FROM ts WHERE TIME >= 0 AND TIME <= 99999999999999")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Aggregates["VAR(A)"], exactVar(vals); got != want {
		t.Fatalf("VAR = %v want %v", got, want)
	}
}

func TestStatsStageTimings(t *testing.T) {
	ts, vals := testData(50_000, 11, false)
	st := storeFor(t, ModeSerial, ts, vals, 4096)
	e := New(st, ModeSerial)
	res, err := e.ExecuteSQL("SELECT SUM(A) FROM (SELECT * FROM ts WHERE A > 0)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DecodeNanos <= 0 {
		t.Fatal("decode time not recorded")
	}
	if res.Stats.SlicesRun <= 0 || res.Stats.TuplesLoaded <= 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	ts, vals := testData(30_000, 12, false)
	st := storeFor(t, ModeETSQP, ts, vals, 1024)
	var ref *Result
	for _, w := range []int{1, 2, 3, 8, 17} {
		e := New(st, ModeETSQP)
		e.Workers = w
		res, err := e.ExecuteSQL("SELECT SUM(A), MIN(A), MAX(A), COUNT(A) FROM ts WHERE TIME >= 0 AND TIME <= 99999999999999")
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Aggregates, ref.Aggregates) {
			t.Fatalf("workers=%d: %v != %v", w, res.Aggregates, ref.Aggregates)
		}
	}
}

func TestSumOverflowDetected(t *testing.T) {
	// Constant huge values encode fine (zero deltas) but their sum wraps
	// int64; Section VI-C requires an error, not a wrapped result.
	n := 64
	ts := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(i) * 1000
		vals[i] = 1 << 62
	}
	for _, mode := range []Mode{ModeETSQP, ModeSerial} {
		st := storeFor(t, mode, ts, vals, 32)
		e := New(st, mode)
		_, err := e.ExecuteSQL("SELECT SUM(A) FROM ts WHERE TIME >= 0 AND TIME <= 9999999")
		if err == nil {
			t.Fatalf("%v: overflow must be detected", mode)
		}
		// Non-overflowing aggregates still work on the same data.
		res, err := e.ExecuteSQL("SELECT MAX(A) FROM ts WHERE TIME >= 0 AND TIME <= 9999999")
		if err != nil || res.Aggregates["MAX(A)"] != float64(int64(1)<<62) {
			t.Fatalf("%v: MAX failed: %v", mode, err)
		}
	}
}

func TestFirstLastAggregates(t *testing.T) {
	ts, vals := testData(12_000, 20, false)
	t1, t2 := ts[500], ts[11_000]
	for _, mode := range allModes {
		st := storeFor(t, mode, ts, vals, 1024)
		e := New(st, mode)
		res, err := e.ExecuteSQL(fmt.Sprintf(
			"SELECT FIRST(A), LAST(A) FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Aggregates["FIRST(A)"]; got != float64(vals[500]) {
			t.Fatalf("%v: FIRST %v want %d", mode, got, vals[500])
		}
		if got := res.Aggregates["LAST(A)"]; got != float64(vals[11_000]) {
			t.Fatalf("%v: LAST %v want %d", mode, got, vals[11_000])
		}
	}
	// Regular timestamps: constant-interval path must produce the same.
	ts2, vals2 := testData(8_000, 21, true)
	st := storeFor(t, ModeETSQP, ts2, vals2, 2048)
	e := New(st, ModeETSQP)
	res, err := e.ExecuteSQL(fmt.Sprintf(
		"SELECT FIRST(A), LAST(A) FROM ts WHERE TIME >= %d AND TIME <= %d", ts2[100], ts2[7000]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregates["FIRST(A)"] != float64(vals2[100]) || res.Aggregates["LAST(A)"] != float64(vals2[7000]) {
		t.Fatalf("constant-interval FIRST/LAST wrong: %v", res.Aggregates)
	}
}

func TestFirstLastWindows(t *testing.T) {
	ts, vals := testData(5_000, 22, true) // interval 100
	st := storeFor(t, ModeETSQP, ts, vals, 900)
	e := New(st, ModeETSQP)
	dt := int64(100 * 500)
	res, err := e.ExecuteSQL(fmt.Sprintf("SELECT LAST(A) FROM ts SW(%d, %d)", ts[0], dt))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 10 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	for wi, w := range res.Windows {
		var want int64
		for i := range ts {
			if ts[i] >= w.Start && ts[i] < w.End {
				want = vals[i]
			}
		}
		if w.Value != float64(want) {
			t.Fatalf("window %d: LAST %v want %d", wi, w.Value, want)
		}
	}
}

func TestFirstLastWithValuePredsRejected(t *testing.T) {
	ts, vals := testData(100, 23, true)
	st := storeFor(t, ModeETSQP, ts, vals, 50)
	e := New(st, ModeETSQP)
	if _, err := e.ExecuteSQL("SELECT FIRST(A) FROM (SELECT * FROM ts WHERE A > 0)"); err == nil {
		t.Fatal("FIRST with value predicates must be rejected")
	}
	if _, err := e.ExecuteSQL("SELECT FIRST(A) FROM ts WHERE TIME > 999999999999"); err == nil {
		t.Fatal("FIRST over empty range must error")
	}
}

func TestCorruptPageSurfacesError(t *testing.T) {
	// Flip bytes inside stored page payloads: queries must fail with an
	// error, never panic or return wrong data silently.
	ts, vals := testData(4_000, 30, false)
	for trial := 0; trial < 20; trial++ {
		st := storeFor(t, ModeETSQP, ts, vals, 512)
		ser, _ := st.Series("ts")
		rng := rand.New(rand.NewSource(int64(trial)))
		pp := ser.Pages[rng.Intn(len(ser.Pages))]
		page := pp.Value
		if trial%2 == 0 {
			page = pp.Time
		}
		if len(page.Data) == 0 {
			continue
		}
		// Truncate or bit-flip.
		if trial%3 == 0 {
			page.Data = page.Data[:rng.Intn(len(page.Data))]
		} else {
			page.Data[rng.Intn(len(page.Data))] ^= 0xFF
		}
		for _, mode := range []Mode{ModeETSQP, ModeSerial} {
			e := New(st, mode)
			res, err := e.ExecuteSQL("SELECT SUM(A) FROM ts WHERE TIME >= 0 AND TIME <= 99999999999999")
			if err != nil {
				continue // surfaced: good
			}
			// A bit flip inside the packed payload may decode to different
			// values without structural corruption; that is acceptable as
			// long as execution completed. Sanity: result finite.
			if res == nil {
				t.Fatalf("trial %d %v: nil result without error", trial, mode)
			}
		}
	}
}

func TestAlternateTimeCodecThroughEngine(t *testing.T) {
	// gorilla-time timestamps exercise the generic (non-ts2diff) decode
	// path for the time column in every mode.
	ts, vals := testData(6_000, 31, false)
	var want int64
	t1, t2 := ts[1000], ts[5000]
	for i := range ts {
		if ts[i] >= t1 && ts[i] <= t2 {
			want += vals[i]
		}
	}
	for _, mode := range []Mode{ModeETSQP, ModeSerial} {
		st := storage.NewStore()
		if err := st.Append("ts", ts, vals, storage.Options{
			PageSize: 700, TimeCodec: "gorilla-time", ValueCodec: "sprintz",
		}); err != nil {
			t.Fatal(err)
		}
		e := New(st, mode)
		res, err := e.ExecuteSQL(fmt.Sprintf(
			"SELECT SUM(A) FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Aggregates["SUM(A)"]; got != float64(want) {
			t.Fatalf("%v: got %v want %d", mode, got, want)
		}
	}
}

func TestLimitClause(t *testing.T) {
	ts, vals := testData(2000, 40, true)
	st := storeFor(t, ModeETSQP, ts, vals, 500)
	e := New(st, ModeETSQP)
	res, err := e.ExecuteSQL("SELECT * FROM ts WHERE TIME >= 0 AND TIME <= 99999999999 LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Time) != 7 {
		t.Fatalf("rows = %d want 7", len(res.Time))
	}
	// Merge path.
	st2 := storage.NewStore()
	if err := st2.Append("ts1", ts, vals, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	ts2 := make([]int64, len(ts))
	for i := range ts2 {
		ts2[i] = ts[i] + 13
	}
	if err := st2.Append("ts2", ts2, vals, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	e2 := New(st2, ModeETSQP)
	res2, err := e2.ExecuteSQL("SELECT * FROM ts1 UNION ts2 ORDER BY TIME LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Time) != 5 {
		t.Fatalf("merge rows = %d want 5", len(res2.Time))
	}
	res3, err := e2.ExecuteSQL("SELECT * FROM ts1, ts2 LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Time) > 4 {
		t.Fatalf("join rows = %d", len(res3.Time))
	}
	// A LIMIT plan runs one range even with workers to spare, so every
	// row shape over 8-page series reads only the first page pair (time
	// and value column) of each series it streams.
	e3 := New(joinStore(t), ModeETSQP)
	e3.Workers = 2
	for sql, loads := range map[string]int64{
		"SELECT * FROM ts1 WHERE A >= 3 LIMIT 5":            2,
		"SELECT * FROM ts1 UNION ts2 ORDER BY TIME LIMIT 5": 4,
		"SELECT * FROM ts1, ts2 LIMIT 4":                    4,
	} {
		res, err := e3.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.MergeRanges != 1 || st.PagesRead != loads {
			t.Errorf("%q: %d ranges, %d page loads; want 1 range, %d loads", sql, st.MergeRanges, st.PagesRead, loads)
		}
	}
}

func TestExplain(t *testing.T) {
	ts, vals := testData(10_000, 50, true)
	st := storeFor(t, ModeETSQPPrune, ts, vals, 1024)
	e := New(st, ModeETSQPPrune)
	e.Workers = 4

	info, err := e.Explain("SELECT SUM(A) FROM ts WHERE TIME >= 0 AND TIME <= 99999999999999")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shape != "aggregate" || !info.Fused || info.Pages != 10 || info.Pruning {
		t.Fatalf("plan: %+v", info)
	}
	// A != filter is never vacuous, so no job fuses. (A range filter the
	// page statistics prove vacuous does: TestExplainAgreesWithExecution.)
	info, err = e.Explain("SELECT SUM(A) FROM (SELECT * FROM ts WHERE A != 5)")
	if err != nil {
		t.Fatal(err)
	}
	if info.Fused || !info.Pruning {
		t.Fatalf("plan: %+v", info)
	}
	info, err = e.Explain(fmt.Sprintf("SELECT AVG(A) FROM ts SW(%d, %d)", ts[0], int64(100*1000)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Shape != "window" || info.Windows != 10 {
		t.Fatalf("plan: %+v", info)
	}
	if s := info.String(); !contains(s, "window query") || !contains(s, "window instances: 10") {
		t.Fatalf("render: %s", s)
	}
	if _, err := e.Explain("SELECT SUM(A) FROM missing"); err == nil {
		t.Fatal("unknown series must fail")
	}
	if _, err := e.Explain("not sql"); err == nil {
		t.Fatal("parse error must propagate")
	}
	// Scan and merge shapes.
	info, err = e.Explain("SELECT * FROM ts WHERE A > 3")
	if err != nil || info.Shape != "scan" {
		t.Fatalf("%+v %v", info, err)
	}
	st2 := storage.NewStore()
	_ = st2.Append("a", ts, vals, storage.Options{PageSize: 1000})
	ts2 := make([]int64, len(ts))
	for i := range ts2 {
		ts2[i] = ts[i] + 7
	}
	_ = st2.Append("b", ts2, vals, storage.Options{PageSize: 1000})
	e2 := New(st2, ModeETSQP)
	e2.Workers = 4
	info, err = e2.Explain("SELECT * FROM a UNION b ORDER BY TIME")
	if err != nil || info.Shape != "merge" || info.MergeRanges < 2 {
		t.Fatalf("%+v %v", info, err)
	}
	info, err = e2.Explain("SELECT * FROM a, b")
	if err != nil || info.Shape != "join" {
		t.Fatalf("%+v %v", info, err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func TestTimeCuts(t *testing.T) {
	ts, vals := testData(10_000, 51, true)
	st := storeFor(t, ModeETSQP, ts, vals, 1000)
	ser, _ := st.Series("ts")
	t1, t2 := ts[0], ts[len(ts)-1]
	for _, n := range []int{1, 2, 4, 10, 100} {
		cuts := cutPages(ser.PagesInRange(t1, t2), t1, t2, n)
		if len(cuts) == 0 || len(cuts) > n && n > 0 {
			t.Fatalf("n=%d: %d cuts", n, len(cuts))
		}
		// Disjoint contiguous coverage of [t1, t2].
		if cuts[0][0] != t1 || cuts[len(cuts)-1][1] != t2 {
			t.Fatalf("n=%d: cover [%d,%d] with %v", n, t1, t2, cuts)
		}
		for i := 1; i < len(cuts); i++ {
			if cuts[i][0] != cuts[i-1][1]+1 {
				t.Fatalf("n=%d: gap between %v and %v", n, cuts[i-1], cuts[i])
			}
		}
	}
	// Empty page range falls back to one cut.
	if cuts := cutPages(ser.PagesInRange(t2+100, t2+200), t2+100, t2+200, 4); len(cuts) != 1 {
		t.Fatalf("empty range cuts: %v", cuts)
	}
}

func TestJoinCorrelation(t *testing.T) {
	n := 5000
	ts := make([]int64, n)
	a := make([]int64, n)
	b := make([]int64, n)
	rng := rand.New(rand.NewSource(70))
	for i := 0; i < n; i++ {
		ts[i] = int64(i) * 1000
		a[i] = int64(i%100) + rng.Int63n(10)
		b[i] = 3*a[i] + 17 // perfectly linear
	}
	st := storage.NewStore()
	if err := st.Append("ts1", ts, a, storage.Options{PageSize: 800}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("ts2", ts, b, storage.Options{PageSize: 600}); err != nil {
		t.Fatal(err)
	}
	e := New(st, ModeETSQP)
	res, err := e.ExecuteSQL("SELECT CORR(ts1.A, ts2.A) FROM ts1, ts2")
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Aggregates["CORR(A,B)"]; math.Abs(r-1) > 1e-9 {
		t.Fatalf("corr = %v want 1", r)
	}
	// Anti-correlated.
	c := make([]int64, n)
	for i := range c {
		c[i] = -2 * a[i]
	}
	if err := st.Append("ts3", ts, c, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err = e.ExecuteSQL("SELECT CORR(ts1.A, ts3.A) FROM ts1, ts3")
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Aggregates["CORR(A,B)"]; math.Abs(r+1) > 1e-9 {
		t.Fatalf("anticorr = %v want -1", r)
	}
	// Zero variance errors.
	z := make([]int64, n)
	for i := range z {
		z[i] = 5
	}
	if err := st.Append("tsz", ts, z, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteSQL("SELECT CORR(ts1.A, tsz.A) FROM ts1, tsz"); err == nil {
		t.Fatal("zero variance must fail")
	}
	// Empty join errors.
	ts2 := make([]int64, n)
	for i := range ts2 {
		ts2[i] = ts[i] + 1
	}
	if err := st.Append("tso", ts2, a, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteSQL("SELECT CORR(ts1.A, tso.A) FROM ts1, tso"); err == nil {
		t.Fatal("empty join must fail")
	}
	// Large magnitudes, where float sums of squares cancel to noise: a
	// constant 1e9+7 has no variance, a near 2^40 against a+1 is exactly
	// linear, and a Σa that leaves int64 is the Section VI-C error — at
	// every worker count.
	flat, a40, b40, a62 := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range a {
		flat[i], a40[i], b40[i], a62[i] = 1e9+7, 1<<40+a[i], 1<<40+a[i]+1, 1<<62+a[i]
	}
	for name, vals := range map[string][]int64{"tsk": flat, "ts40": a40, "ts41": b40, "ts62": a62} {
		if err := st.Append(name, ts, vals, storage.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{1, 2, 4} {
		e.Workers = w
		if _, err := e.ExecuteSQL("SELECT CORR(ts1.A, tsk.A) FROM ts1, tsk"); err == nil || !strings.Contains(err.Error(), "zero variance") {
			t.Errorf("workers=%d: CORR against a constant 1e9+7: error %v, want zero variance", w, err)
		}
		if res, err := e.ExecuteSQL("SELECT CORR(ts40.A, ts41.A) FROM ts40, ts41"); err != nil || res.Aggregates["CORR(A,B)"] != 1 {
			t.Errorf("workers=%d: CORR(a, a+1) near 2^40 = %v (error %v), want exactly 1", w, res, err)
		}
		if _, err := e.ExecuteSQL("SELECT CORR(ts62.A, ts1.A) FROM ts62, ts1"); !errors.Is(err, ErrOverflow) {
			t.Errorf("workers=%d: CORR with Σa past int64: error %v, want ErrOverflow", w, err)
		}
	}
}

func TestPageSizeInvariance(t *testing.T) {
	// Identical data stored at different page sizes must answer every
	// query identically in every mode.
	ts, vals := testData(9_000, 80, false)
	t1, t2 := ts[1000], ts[8000]
	sql := fmt.Sprintf("SELECT SUM(A), COUNT(A), MIN(A), MAX(A) FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2)
	var ref map[string]float64
	for _, ps := range []int{256, 1000, 3000, 9000} {
		for _, mode := range []Mode{ModeETSQP, ModeSerial, ModeSBoost} {
			st := storeFor(t, mode, ts, vals, ps)
			res, err := New(st, mode).ExecuteSQL(sql)
			if err != nil {
				t.Fatalf("ps=%d %v: %v", ps, mode, err)
			}
			if ref == nil {
				ref = res.Aggregates
				continue
			}
			if !reflect.DeepEqual(res.Aggregates, ref) {
				t.Fatalf("ps=%d %v: %v != %v", ps, mode, res.Aggregates, ref)
			}
		}
	}
}

func TestChecksumCorruptionThroughEngine(t *testing.T) {
	ts, vals := testData(2000, 81, true)
	st := storeFor(t, ModeETSQP, ts, vals, 500)
	ser, _ := st.Series("ts")
	ser.Pages[1].Value.Data[0] ^= 0xFF
	for _, mode := range []Mode{ModeETSQP, ModeSerial} {
		e := New(st, mode)
		if _, err := e.ExecuteSQL("SELECT SUM(A) FROM ts WHERE TIME >= 0 AND TIME <= 99999999999"); err == nil {
			t.Fatalf("%v: corrupted page not detected", mode)
		}
	}
}

func TestWindowWithValuePredicate(t *testing.T) {
	ts, vals := testData(8_000, 90, true) // interval 100
	thresh := vals[0]
	dt := int64(100 * 1000)
	sql := fmt.Sprintf("SELECT SUM(A) FROM ts WHERE A > %d SW(%d, %d)", thresh, ts[0], dt)
	for _, mode := range []Mode{ModeETSQP, ModeETSQPPrune, ModeSerial} {
		st := storeFor(t, mode, ts, vals, 1500)
		res, err := New(st, mode).ExecuteSQL(sql)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for wi, w := range res.Windows {
			var want int64
			var count int64
			for i := range ts {
				if ts[i] >= w.Start && ts[i] < w.End && vals[i] > thresh {
					want += vals[i]
					count++
				}
			}
			if w.Value != float64(want) || w.Count != count {
				t.Fatalf("%v window %d: got %v/%d want %d/%d", mode, wi, w.Value, w.Count, want, count)
			}
		}
	}
}

func TestWindowMultiItemRejected(t *testing.T) {
	ts, vals := testData(100, 91, true)
	st := storeFor(t, ModeETSQP, ts, vals, 50)
	e := New(st, ModeETSQP)
	if _, err := e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A), COUNT(A) FROM ts SW(%d, 1000)", ts[0])); err == nil {
		t.Fatal("multi-item window query must be rejected")
	}
}

func TestTimeScanEarlyStop(t *testing.T) {
	// Irregular timestamps + a selective time filter: prune mode must
	// stop decoding the time column once past t2 and still be exact.
	ts, vals := testData(20_000, 95, false)
	t1, t2 := ts[100], ts[2000] // early range inside the first page
	want, wantCount := sumRange(ts, vals, t1, t2, func(int64) bool { return true })
	st := storeFor(t, ModeETSQPPrune, ts, vals, 10_000) // big pages
	e := New(st, ModeETSQPPrune)
	res, err := e.ExecuteSQL(fmt.Sprintf(
		"SELECT SUM(A), COUNT(A) FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregates["SUM(A)"] != float64(want) || res.Aggregates["COUNT(A)"] != float64(wantCount) {
		t.Fatalf("got %v want sum %d count %d", res.Aggregates, want, wantCount)
	}
	if res.Stats.RowsPruned < 7000 {
		t.Fatalf("time scan pruned only %d rows", res.Stats.RowsPruned)
	}
	// Plain ETSQP gives the same numbers without the early stop.
	res2, err := New(st, ModeETSQP).ExecuteSQL(fmt.Sprintf(
		"SELECT SUM(A), COUNT(A) FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Aggregates, res2.Aggregates) {
		t.Fatalf("prune vs plain mismatch: %v vs %v", res.Aggregates, res2.Aggregates)
	}
}

// TestFirstLastSlicedTimeBound runs FIRST/LAST under a time bound that
// ends inside a sliced page with irregular timestamps in every mode. The
// prune mode's time stop keeps every timestamp up to its stopping chunk,
// so each slice's boundary rows carry their own timestamps: were they
// lost, the slices of one page would all carry the page's first
// timestamp and LAST would pick an arbitrary slice.
func TestFirstLastSlicedTimeBound(t *testing.T) {
	ts, vals := testData(4000, 3, false)
	t1, t2 := ts[100], ts[3500]
	sql := fmt.Sprintf("SELECT FIRST(A), LAST(A) FROM ts WHERE TIME >= %d AND TIME <= %d", t1, t2)
	for _, mode := range allModes {
		st := storeFor(t, mode, ts, vals, 1024)
		for rep := 0; rep < 10; rep++ {
			e := New(st, mode)
			e.Workers, e.ForceSlices = 4, 4
			res, err := e.ExecuteSQL(sql)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if res.Aggregates["FIRST(A)"] != float64(vals[100]) || res.Aggregates["LAST(A)"] != float64(vals[3500]) {
				t.Fatalf("%v: %v, want FIRST %d LAST %d", mode, res.Aggregates, vals[100], vals[3500])
			}
		}
	}
}

package engine

import (
	"fmt"
	"reflect"
	"testing"

	"etsqp/internal/exec"
	"etsqp/internal/storage"
)

// TestTimeStopEveryShape: under the prune strategy each job builds its
// row clock from one read of its time page, and on irregular clocks the
// decode stops after the first chunk past t2 whatever the aggregate
// shape — tumbling and hopping windows, FIRST/LAST and a plain SUM —
// with whole pages and with pages cut into slices. Every answer equals
// ModeSerial's, and every shape prunes rows. With a cache, a query
// whose t2 falls mid-page takes the time pages an earlier query admitted
// whole, boundary page included, and decodes no timestamp.
func TestTimeStopEveryShape(t *testing.T) {
	ts, vals := testData(6_000, 17, false)
	t1, t2 := ts[150], ts[2_437] // t2 inside the third page
	st := storage.NewStore()
	if err := st.Append("ts", ts, vals, storage.Options{PageSize: 1000}); err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("WHERE TIME >= %d AND TIME <= %d", t1, t2)
	queries := []string{
		"SELECT SUM(A) FROM ts " + where + " GROUP BY TIME(25000)",
		"SELECT SUM(A) FROM ts " + where + " GROUP BY TIME(70000, 30000)",
		"SELECT LAST(A) FROM ts " + where + " GROUP BY TIME(33300)",
		"SELECT FIRST(A), LAST(A) FROM ts " + where,
		"SELECT SUM(A), COUNT(A) FROM ts " + where,
	}
	for _, slices := range []int{0, 3} {
		for _, sql := range queries {
			results := map[Mode]*Result{}
			for _, mode := range []Mode{ModeSerial, ModeETSQPPrune} {
				e := New(st, mode)
				e.Workers, e.ForceSlices = 2, slices
				res, err := e.ExecuteSQL(sql)
				if err != nil {
					t.Fatalf("%v, %s: %v", mode, sql, err)
				}
				results[mode] = res
			}
			got, want := results[ModeETSQPPrune], results[ModeSerial]
			if !reflect.DeepEqual(got.Windows, want.Windows) || !reflect.DeepEqual(got.Aggregates, want.Aggregates) {
				t.Errorf("ForceSlices=%d, %s:\nprune  %v %v\nserial %v %v",
					slices, sql, got.Windows, got.Aggregates, want.Windows, want.Aggregates)
			}
			if got.Stats.RowsPruned == 0 {
				t.Errorf("ForceSlices=%d, %s: no rows pruned", slices, sql)
			}
		}
	}

	// Whole-page jobs admit every time page; the cut jobs then read
	// their rows of the cached pages.
	warm := New(st, ModeETSQPPrune)
	warm.Workers, warm.Cache = 2, exec.NewPageCache(1<<20)
	if _, err := warm.ExecuteSQL("SELECT SUM(A) FROM ts"); err != nil {
		t.Fatal(err)
	}
	for _, slices := range []int{0, 3} {
		e := New(st, ModeETSQPPrune)
		e.Workers, e.ForceSlices, e.Cache = 2, slices, warm.Cache
		sql := "SELECT SUM(A) FROM ts " + where
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(st, ModeSerial).ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Aggregates, want.Aggregates) {
			t.Errorf("ForceSlices=%d, cached: %v, want %v", slices, res.Aggregates, want.Aggregates)
		}
		if s := res.Stats; s.CacheHits == 0 || s.CacheMisses != 0 || s.DecodeNanos != 0 || s.ValuesDecoded != 0 {
			t.Errorf("ForceSlices=%d, cached: %d hits, %d misses, decode %d ns, %d values decoded; want the time pages from the cache and nothing decoded",
				slices, s.CacheHits, s.CacheMisses, s.DecodeNanos, s.ValuesDecoded)
		}
	}

	// A decode asked to stop lives in the worker's arena, so it is never
	// admitted, even when it stops in the page's last chunk having decoded
	// every row: the next stopped decode reuses that buffer, and a later
	// query reading the page from the cache would see its timestamps.
	e := New(st, ModeETSQPPrune)
	e.Workers, e.Cache = 1, exec.NewPageCache(1<<20)
	for _, sql := range []string{
		fmt.Sprintf("SELECT SUM(A) FROM ts WHERE TIME <= %d", ts[2_990]),
		fmt.Sprintf("SELECT SUM(A) FROM ts WHERE TIME <= %d", ts[4_500]),
		"SELECT SUM(A) FROM ts GROUP BY TIME(25000)",
	} {
		got, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(st, ModeSerial).ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Windows, want.Windows) || !reflect.DeepEqual(got.Aggregates, want.Aggregates) {
			t.Errorf("%s after stopped decodes:\ngot  %v %v\nwant %v %v", sql, got.Windows, got.Aggregates, want.Windows, want.Aggregates)
		}
	}
}

// TestFusedCountsReadNoSum: a fused job whose plan reads no sum — COUNT,
// FIRST or LAST alone — adds each segment's row count and skips the
// closed form, so a page whose closed form overflows int64 (values near
// 2^62) is not decoded, and the answers equal ModeSerial's.
func TestFusedCountsReadNoSum(t *testing.T) {
	const n = 8192
	ts, vals := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = 1_000_000 + int64(i)*100
		vals[i] = 1<<62 + int64(i%97)
	}
	for _, codec := range []string{"ts2diff", "rlbe"} {
		st := storage.NewStore()
		if err := st.Append("ts", ts, vals, storage.Options{ValueCodec: codec}); err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{
			"SELECT LAST(A) FROM ts",
			"SELECT COUNT(A) FROM ts",
			"SELECT LAST(A) FROM ts GROUP BY TIME(100000)",
		} {
			want, err := New(st, ModeSerial).ExecuteSQL(sql)
			if err != nil {
				t.Fatalf("%s, serial, %s: %v", codec, sql, err)
			}
			for _, mode := range []Mode{ModeETSQP, ModeETSQPPrune} {
				e := New(st, mode)
				e.Workers = 2
				got, err := e.ExecuteSQL(sql)
				if err != nil {
					t.Fatalf("%s, %v, %s: %v", codec, mode, sql, err)
				}
				if !reflect.DeepEqual(got.Windows, want.Windows) || !reflect.DeepEqual(got.Aggregates, want.Aggregates) {
					t.Errorf("%s, %v, %s:\ngot  %v %v\nwant %v %v", codec, mode, sql, got.Windows, got.Aggregates, want.Windows, want.Aggregates)
				}
				if got.Stats.ValuesDecoded != 0 || got.Stats.ValuesFused != n {
					t.Errorf("%s, %v, %s: fused=%d decoded=%d, want every row fused", codec, mode, sql,
						got.Stats.ValuesFused, got.Stats.ValuesDecoded)
				}
			}
		}
	}
}

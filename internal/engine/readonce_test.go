package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"etsqp/internal/storage"
)

// plateauData builds a regular series (interval 100) whose values hold
// for a few rows and then step, so an RLBE page holds runs longer than
// one row and a TS2DIFF page packs small deltas.
func plateauData(n int, seed int64) (ts, vals []int64) {
	rng := rand.New(rand.NewSource(seed))
	ts, vals = make([]int64, n), make([]int64, n)
	v := int64(-300)
	for i := range ts {
		ts[i] = 1_000_000 + int64(i)*100
		if rng.Intn(3) == 0 {
			v += rng.Int63n(41) - 20
		}
		vals[i] = v
	}
	return ts, vals
}

// TestWindowBoundariesReadOnce: FIRST and LAST over many windows read
// each boundary row from the job's one read of its value page — a
// TS2DIFF block's prefix (order 2 included, whose last row adds the
// running difference), an RLBE page's runs, or the decoded values —
// and answer what ModeSerial answers, in every mode, with whole pages
// and with pages cut into slices. The query reads no page more than the
// same query's SUM does: each value page once, plus its time page where
// the mode decodes timestamps (a page whose rows all fall outside a
// TIME range is not read), and a page cut into slices no more than a
// whole one.
func TestWindowBoundariesReadOnce(t *testing.T) {
	ts, vals := plateauData(6_000, 7)
	queries := []string{
		"SELECT %s(A) FROM ts GROUP BY TIME(25000)",
		"SELECT %s(A) FROM ts GROUP BY TIME(70000, 30000)",
		"SELECT %s(A) FROM ts WHERE TIME >= 1012345 AND TIME < 1543210 GROUP BY TIME(33300)",
		"SELECT %s(A) FROM ts WHERE TIME >= 1012345 AND TIME < 1543210",
	}
	for _, codec := range []string{"ts2diff", "ts2diff2", "rlbe"} {
		st := storage.NewStore()
		if err := st.Append("ts", ts, vals, storage.Options{PageSize: 1000, ValueCodec: codec}); err != nil {
			t.Fatal(err)
		}
		whole := map[string][2]int64{} // PagesRead and BytesScanned at ForceSlices=0
		for _, slices := range []int{0, 3} {
			for _, q := range queries {
				run := func(mode Mode, agg string) *Result {
					t.Helper()
					e := New(st, mode)
					e.Workers, e.ForceSlices = 2, slices
					res, err := e.ExecuteSQL(fmt.Sprintf(q, agg))
					if err != nil {
						t.Fatalf("%s, %v, %s: %v", codec, mode, fmt.Sprintf(q, agg), err)
					}
					return res
				}
				for _, agg := range []string{"FIRST", "LAST"} {
					want := run(ModeSerial, agg)
					for _, mode := range allModes {
						got, sum := run(mode, agg), run(mode, "SUM")
						where := fmt.Sprintf("%s, ForceSlices=%d, %v, %s", codec, slices, mode, fmt.Sprintf(q, agg))
						if !reflect.DeepEqual(got.Windows, want.Windows) || !reflect.DeepEqual(got.Aggregates, want.Aggregates) {
							t.Errorf("%s:\ngot  %v %v\nwant %v %v", where, got.Windows, got.Aggregates, want.Windows, want.Aggregates)
						}
						perJob := int64(2) // the time page and the value page
						if mode.strategy().constInterval {
							perJob = 1 // rows by interval arithmetic: the value page alone
						}
						st := got.Stats
						allRows := !strings.Contains(q, "WHERE TIME")
						if allRows && st.PagesRead != perJob*st.PagesTotal || st.PagesRead != sum.Stats.PagesRead ||
							st.BytesScanned != sum.Stats.BytesScanned {
							t.Errorf("%s: read %d pages, %d bytes of %d; SUM reads %d pages, %d bytes",
								where, st.PagesRead, st.BytesScanned, st.PagesTotal, sum.Stats.PagesRead, sum.Stats.BytesScanned)
						}
						key, read := fmt.Sprintf("%v, %s", mode, fmt.Sprintf(q, agg)), [2]int64{st.PagesRead, st.BytesScanned}
						if slices == 0 {
							whole[key] = read
						} else if read != whole[key] {
							t.Errorf("%s: read %d pages, %d bytes; whole pages read %d, %d", where, read[0], read[1], whole[key][0], whole[key][1])
						}
					}
				}
			}
		}
	}
}

// TestPrunedWindowScanStops: under the prune strategy a value-filtered
// window aggregate takes the scanner, per segment, with the
// Proposition 5 stop. Every page rises from 0 by steps of 1 to 3, so
// once a scan passes the filter's upper end nothing ahead on the page
// can meet it, and the rest of the page is skipped. Every window must
// still answer what ModeSerial answers, and rows must be pruned.
func TestPrunedWindowScanStops(t *testing.T) {
	const n, page = 8_192, 1024
	rng := rand.New(rand.NewSource(3))
	ts, vals := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = 1_000_000 + int64(i)*100
		if i%page != 0 {
			vals[i] = vals[i-1] + 1 + rng.Int63n(3)
		}
	}
	st := storage.NewStore()
	if err := st.Append("ts", ts, vals, storage.Options{PageSize: page}); err != nil {
		t.Fatal(err)
	}
	for _, agg := range []string{"SUM", "COUNT", "AVG"} {
		for _, q := range []string{
			"SELECT %s(A) FROM ts WHERE A < 600 GROUP BY TIME(30000)",
			"SELECT %s(A) FROM ts WHERE A >= 10 AND A <= 900 GROUP BY TIME(45000, 15000)",
			"SELECT %s(A) FROM ts WHERE A <= 900 AND A != 400 GROUP BY TIME(45000, 15000)",
		} {
			sql := fmt.Sprintf(q, agg)
			for _, workers := range []int{1, 2} {
				results := map[Mode]*Result{}
				for _, mode := range []Mode{ModeSerial, ModeETSQPPrune} {
					e := New(st, mode)
					e.Workers = workers
					res, err := e.ExecuteSQL(sql)
					if err != nil {
						t.Fatalf("%v, %s: %v", mode, sql, err)
					}
					results[mode] = res
				}
				got, want := results[ModeETSQPPrune], results[ModeSerial]
				if !reflect.DeepEqual(got.Windows, want.Windows) {
					t.Errorf("%s, %d workers:\nprune  %v\nserial %v", sql, workers, got.Windows, want.Windows)
				}
				if got.Stats.RowsPruned == 0 {
					t.Errorf("%s, %d workers: no rows pruned", sql, workers)
				}
			}
		}
	}
}

// TestFusedRangeSumSeek: a TIME range that starts inside a value page
// sends the fused segment walk through the scanner's seek (Reset at the
// range's first row: order 1 skips by SumPacked, order 2 replays the
// recurrence). With first rows at page offsets 0, 1, 2, 8, 9, 127–129
// and mid-page — each side of the order-2 recurrence's two seed rows,
// of an 8-field byte boundary and of a 128-row chunk — and ends in the
// same page or the next, ETSQP and ETSQP-prune must fuse every selected
// row and answer SUM exactly as Serial and a plain loop do.
func TestFusedRangeSumSeek(t *testing.T) {
	const n, page, interval = 3_000, 1_000, 100
	rng := rand.New(rand.NewSource(11))
	ts, vals := make([]int64, n), make([]int64, n)
	v, step := int64(-40_000), int64(0)
	for i := range ts {
		ts[i] = 1_000_000 + int64(i)*interval
		// A walk whose steps drift, so order-1 and order-2 pages both pack
		// fields of a width that is not a multiple of 8: most rows start
		// mid-byte.
		step += rng.Int63n(601) - 300
		v += step + rng.Int63n(1<<11)
		vals[i] = v
	}
	for _, codec := range []string{"ts2diff", "ts2diff2"} {
		st := storage.NewStore()
		if err := st.Append("ts", ts, vals, storage.Options{PageSize: page, ValueCodec: codec}); err != nil {
			t.Fatal(err)
		}
		run := func(mode Mode, sql string) *Result {
			t.Helper()
			e := New(st, mode)
			e.Workers = 2
			res, err := e.ExecuteSQL(sql)
			if err != nil {
				t.Fatalf("%s, %v, %s: %v", codec, mode, sql, err)
			}
			return res
		}
		for _, off := range []int{0, 1, 2, 8, 9, 127, 128, 129, 517} {
			lo := page + off
			for _, hi := range []int{lo + 1, lo + 2, lo + 300, 2*page + 345} {
				var want int64
				for _, v := range vals[lo:hi] {
					want += v
				}
				sql := fmt.Sprintf("SELECT SUM(A) FROM ts WHERE TIME >= %d AND TIME < %d", ts[lo], ts[hi])
				serial := run(ModeSerial, sql)
				if got := serial.Aggregates["SUM(A)"]; got != float64(want) {
					t.Fatalf("%s, %s: Serial SUM %v, want %d", codec, sql, got, want)
				}
				for _, mode := range []Mode{ModeETSQP, ModeETSQPPrune} {
					res := run(mode, sql)
					if !reflect.DeepEqual(res.Aggregates, serial.Aggregates) {
						t.Errorf("%s, %v, %s: %v, Serial %v", codec, mode, sql, res.Aggregates, serial.Aggregates)
					}
					if res.Stats.ValuesFused != int64(hi-lo) || res.Stats.ValuesDecoded != 0 {
						t.Errorf("%s, %v, %s: fused %d, decoded %d, want %d fused", codec, mode, sql,
							res.Stats.ValuesFused, res.Stats.ValuesDecoded, hi-lo)
					}
				}
			}
		}
	}
}

package engine

import (
	"strconv"
	"testing"
)

// TestAggregateExecutorAllocs pins the aggregate job path's steady-state
// allocation count. Every shape below runs one job per page and none
// decodes a page column into a fresh slice, so a job needs no heap at
// all: its cut partition lives on the stack or in per-worker scratch,
// fused segment sums and prune chunks in the worker arena, and payloads
// are read in place. What remains is per query (parse, plan, window
// list, partials, fan-out), so each budget is a constant over the page
// count with a slack of 3, below the job count: one allocation per job
// breaks it.
func TestAggregateExecutorAllocs(t *testing.T) {
	ts, vals := testData(8192, 7, true)
	st := storeFor(t, ModeETSQP, ts, vals, 512)
	mid := strconv.FormatInt(vals[len(vals)/2], 10)
	const slack = 3
	for _, c := range []struct {
		name   string
		mode   Mode
		sql    string
		budget int
	}{
		{"fused sum", ModeETSQP, "SELECT SUM(A) FROM ts", 31 + slack},
		{"pruned filtered sum", ModeETSQPPrune, "SELECT SUM(A) FROM ts WHERE A > " + mid, 35 + slack},
		{"tumbling window", ModeETSQP, "SELECT SUM(A) FROM ts GROUP BY TIME(5000)", 43 + slack},
		{"hopping window", ModeETSQP, "SELECT SUM(A) FROM ts GROUP BY TIME(5000, 2000)", 45 + slack},
	} {
		e := New(st, c.mode)
		e.Workers = 2
		warm, err := e.ExecuteSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		jobs := warm.Stats.SlicesRun
		if jobs <= slack {
			t.Fatalf("%s: %d jobs cannot show a per-job allocation", c.name, jobs)
		}
		if c.mode == ModeETSQPPrune && warm.Stats.ValuesDecoded == 0 {
			t.Fatalf("%s: no job took the pruned scan", c.name)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := e.ExecuteSQL(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		if n > float64(c.budget) {
			t.Errorf("%s: %.1f allocs/op over %d jobs, budget %d", c.name, n, jobs, c.budget)
		}
		t.Logf("%s: %.1f allocs/op over %d pages (%d jobs)", c.name, n, warm.Stats.PagesTotal, jobs)
	}
}

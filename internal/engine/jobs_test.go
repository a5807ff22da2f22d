package engine

import (
	"testing"

	"etsqp/internal/storage"
)

func makePairs(t *testing.T, nPages, rowsPer int) []storage.PagePair {
	t.Helper()
	n := nPages * rowsPer
	ts := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(i) * 1000
		vals[i] = int64(i % 100)
	}
	pairs, err := storage.EncodePages(ts, vals, storage.Options{PageSize: rowsPer})
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// jobRows checks that jobs cover every pair in page order, each page's
// slices contiguous from row 0 to its end, and returns the rows covered.
func jobRows(t *testing.T, pairs []storage.PagePair, jobs []Slice) int {
	t.Helper()
	rows, page, next := 0, 0, 0
	for _, sl := range jobs {
		if next == pairs[page].Count() {
			page, next = page+1, 0
		}
		if page == len(pairs) || sl.Pair != pairs[page] || sl.StartRow != next {
			t.Fatalf("job %+v out of page order (page %d, row %d)", sl, page, next)
		}
		next = sl.EndRow
		rows += sl.Rows()
	}
	if page != len(pairs)-1 || next != pairs[page].Count() {
		t.Fatalf("jobs stop at page %d row %d of %d pages", page, next, len(pairs))
	}
	return rows
}

func TestJobsForWholePagesWhenEnough(t *testing.T) {
	pairs := makePairs(t, 8, 100)
	e := New(storage.NewStore(), ModeETSQP)
	e.Workers = 4
	got := e.jobsFor(pairs)
	if len(got) != 8 {
		t.Fatalf("jobs = %d, want 8 whole pages", len(got))
	}
	for _, sl := range got {
		if sl.StartRow != 0 || sl.EndRow != sl.Pair.Count() {
			t.Fatal("whole pages must not be sliced")
		}
	}
	if rows := jobRows(t, pairs, got); rows != 800 {
		t.Fatalf("rows covered = %d", rows)
	}
}

func TestJobsForSlicesWhenScarce(t *testing.T) {
	pairs := makePairs(t, 2, 1000)
	e := New(storage.NewStore(), ModeETSQP)
	e.Workers = 8
	got := e.jobsFor(pairs)
	for _, sl := range got {
		if sl.StartRow%8 != 0 {
			t.Fatalf("slice start %d not aligned", sl.StartRow)
		}
	}
	if rows := jobRows(t, pairs, got); rows != 2000 {
		t.Fatalf("rows covered = %d", rows)
	}
	if len(got) < 5 {
		t.Fatalf("expected each page split into ~4 slices, got %d total", len(got))
	}
}

func TestJobsForEdgeCases(t *testing.T) {
	e := New(storage.NewStore(), ModeETSQP)
	e.Workers = 4
	if got := e.jobsFor(nil); len(got) != 0 {
		t.Fatalf("no pages: %d jobs", len(got))
	}
	pairs := makePairs(t, 1, 5)
	if got := appendSlices(nil, pairs[0], 0); len(got) != 1 || got[0].Rows() != 5 {
		t.Fatalf("n < 1 must clamp to one whole-page slice, got %+v", got)
	}
	// Page smaller than worker count.
	e.Workers = 16
	pairs = makePairs(t, 1, 3)
	if rows := jobRows(t, pairs, e.jobsFor(pairs)); rows != 3 {
		t.Fatalf("rows = %d", rows)
	}
	// SBoost slices every page across all workers even when pages are
	// plentiful, and ForceSlices fixes the count for every strategy.
	pairs = makePairs(t, 8, 100)
	sb := New(storage.NewStore(), ModeSBoost)
	sb.Workers = 4
	if got := sb.jobsFor(pairs); len(got) != 32 || jobRows(t, pairs, got) != 800 {
		t.Fatalf("SBoost: %d jobs, want 4 per page", len(got))
	}
	e.Workers, e.ForceSlices = 4, 2
	if got := e.jobsFor(pairs); len(got) != 16 || jobRows(t, pairs, got) != 800 {
		t.Fatalf("ForceSlices 2: %d jobs, want 2 per page", len(got))
	}
}

package engine

import (
	"etsqp/internal/exec"
	"etsqp/internal/storage"
)

// cutPages splits [t1, t2] into up to n disjoint contiguous ranges cut
// at boundaries of the time-ordered pages, so each range can be scanned,
// joined or merged by an independent worker and the per-range results
// combine in order — the time-range merge nodes of Figure 9.
func cutPages(pages []storage.PagePair, t1, t2 int64, n int) [][2]int64 {
	if n < 1 {
		n = 1
	}
	if len(pages) == 0 || n == 1 {
		return [][2]int64{{t1, t2}}
	}
	if n > len(pages) {
		n = len(pages)
	}
	per := len(pages) / n
	cuts := make([][2]int64, 0, n)
	start := t1
	for i := 1; i < n; i++ {
		// The cut sits just before the start of page i*per: ranges stay
		// disjoint and cover [t1, t2] without splitting a timestamp.
		cut := pages[i*per].StartTime() - 1
		if cut < start {
			continue
		}
		if cut >= t2 {
			break
		}
		cuts = append(cuts, [2]int64{start, cut})
		start = cut + 1
	}
	return append(cuts, [2]int64{start, t2})
}

// rowCols holds row-shaped output as columns: row i is ts[i], vals[c][i].
type rowCols struct {
	ts   []int64
	vals [][]int64
}

// makeRowCols returns empty columns that hold n rows without growing.
func makeRowCols(n, width int) rowCols {
	c := rowCols{ts: make([]int64, 0, n), vals: make([][]int64, width)}
	for j := range c.vals {
		c.vals[j] = make([]int64, 0, n)
	}
	return c
}

// runRanged executes fn over each time range as one morsel batch on the
// shared worker pool and returns the per-range columns concatenated in
// range order, each column copied once; fn also receives the range's
// index, which it may use to own a per-range slot. Each claimed range
// index is owned by exactly one participant, so the results slots stay
// write-disjoint; a straggler range occupies one participant while the
// rest drain the remainder. The query's collector (nil = unattributed)
// receives the batch's shared-pool resource accounting.
func (e *Engine) runRanged(ranges [][2]int64, col *statsCollector, fn func(i int, t1, t2 int64) (rowCols, error)) (rowCols, error) {
	var qs *exec.QueryStats
	if col != nil {
		qs = &col.execStats
	}
	results := make([]rowCols, len(ranges))
	err := e.pool().RunWith(qs, len(ranges), e.workers(), func(w *exec.Worker, i int) error {
		rows, err := fn(i, ranges[i][0], ranges[i][1])
		if err != nil {
			return err
		}
		results[i] = rows
		return nil
	})
	if err != nil {
		return rowCols{}, err
	}
	if len(results) == 1 {
		return results[0], nil
	}
	n := 0
	for _, r := range results {
		n += len(r.ts)
	}
	all := makeRowCols(n, len(results[0].vals))
	for _, r := range results {
		all.ts = append(all.ts, r.ts...)
		for j, v := range r.vals {
			all.vals[j] = append(all.vals[j], v...)
		}
	}
	return all, nil
}

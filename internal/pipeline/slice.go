package pipeline

import (
	"etsqp/internal/obs"
	"etsqp/internal/storage"
)

// Slice is one unit of core-level work: either a whole page pair or a
// row range of one (Section III-C / Figure 8).
type Slice struct {
	Pair     storage.PagePair
	StartRow int // inclusive
	EndRow   int // exclusive
}

// Rows returns the number of rows covered by the slice.
func (s Slice) Rows() int { return s.EndRow - s.StartRow }

// SplitPages distributes page pairs to `workers` pipelines. Following the
// paper's scheduler: when there are at least as many pages as workers,
// pages are dealt whole (no slice dependencies, no idle cores); only when
// pages are scarce is each page cut into at most ceil(workers/#pages)
// slices so every core gets work.
//
// Slice boundaries are aligned to 8-element multiples so constant-width
// slices start on whole unpack vectors (same bits per element, as the
// paper requires for constant packing widths).
func SplitPages(pairs []storage.PagePair, workers int) [][]Slice {
	if workers < 1 {
		workers = 1
	}
	out := make([][]Slice, workers)
	if len(pairs) == 0 {
		return out
	}
	if len(pairs) >= workers {
		// Deal whole pages round-robin.
		for i, pp := range pairs {
			w := i % workers
			out[w] = append(out[w], Slice{Pair: pp, StartRow: 0, EndRow: pp.Count()})
		}
		obs.PipelineSlices.Add(int64(len(pairs)))
		return out
	}
	// Fewer pages than workers: split each page into at most
	// ceil(workers/#pages) slices.
	perPage := (workers + len(pairs) - 1) / len(pairs)
	w := 0
	for _, pp := range pairs {
		for _, sl := range SplitPage(pp, perPage) {
			out[w%workers] = append(out[w%workers], sl)
			w++
		}
	}
	return out
}

// SplitPage cuts one page pair into up to n row-aligned slices.
func SplitPage(pp storage.PagePair, n int) []Slice {
	rows := pp.Count()
	if n < 1 {
		n = 1
	}
	if n > rows {
		n = rows
	}
	if n <= 1 || rows == 0 {
		obs.PipelineSlices.Inc()
		return []Slice{{Pair: pp, StartRow: 0, EndRow: rows}}
	}
	var out []Slice
	per := rows / n
	// Align interior boundaries to 8-row multiples for vector-friendly
	// starts; the final slice absorbs the remainder.
	start := 0
	for i := 0; i < n-1; i++ {
		end := start + per
		end -= end % 8
		if end <= start {
			continue
		}
		out = append(out, Slice{Pair: pp, StartRow: start, EndRow: end})
		start = end
	}
	if start < rows {
		out = append(out, Slice{Pair: pp, StartRow: start, EndRow: rows})
	}
	obs.PipelineSlices.Add(int64(len(out)))
	return out
}

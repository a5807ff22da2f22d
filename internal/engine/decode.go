package engine

import (
	"time"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/rlbe"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/fastlanes"
	"etsqp/internal/obs"
	"etsqp/internal/pipeline"
	"etsqp/internal/storage"
)

// readPage is the memory-I/O stage of the pipeline, charged once per
// page on every path that reads a payload: it verifies the page's
// checksum and adds one page read to col — pagesRead, bytesScanned and
// the verification's time as the io stage (Figure 14(b)). Payloads are
// read in place: a published page is immutable, so no path copies one.
func readPage(p *storage.Page, col *statsCollector) error {
	if col == nil {
		return p.VerifyChecksum()
	}
	start := time.Now()
	err := p.VerifyChecksum()
	col.pagesRead.Add(1)
	col.bytesScanned.Add(int64(len(p.Data)))
	col.ioNanos.Add(int64(time.Since(start)))
	return err
}

// pageBlock parses a ts2diff page payload (the structured view the
// vectorized paths need) into the caller's blk, so a scan parses page
// after page without a heap block each. ok is false for other codecs
// and, with PayloadRows's error, for a payload that does not parse or
// match the header.
func pageBlock(blk *ts2diff.Block, p *storage.Page) (ok bool, err error) {
	switch p.Header.Codec {
	case "ts2diff", "ts2diff2":
		err = blk.UnmarshalBinary(p.Data)
		err = p.PayloadRows(blk.Count, err)
		return err == nil, err
	default:
		return false, nil
	}
}

// decodeColumnRange decodes rows [from, to) of a page column, consulting
// the decoded-page cache first. A hit returns the shared cached slice
// (or a subslice of it) without touching the payload — no load, no
// checksum, no decode — which is the concurrent-workload win the cache
// exists for. Full-page misses are decoded and admitted; partial-range
// decodes are never admitted (they would poison the full-page key).
// Cached slices are shared across queries: callers must treat every
// return value as read-only.
func (e *Engine) decodeColumnRange(ser string, p *storage.Page, from, to int, col *statsCollector) ([]int64, error) {
	if e.Cache == nil {
		return e.decodeColumnRangeUncached(p, from, to, col)
	}
	full := from == 0 && to == p.Header.Count
	if v, ok := e.Cache.Get(p); ok {
		if col != nil {
			col.cacheHits.Add(1)
		}
		if full {
			return v, nil
		}
		return v[from:to], nil
	}
	if col != nil {
		col.cacheMisses.Add(1)
	}
	vals, err := e.decodeColumnRangeUncached(p, from, to, col)
	if err == nil && full {
		e.Cache.Put(ser, p, vals)
	}
	return vals, err
}

// decodeColumnRangeUncached is the decode path proper. Vectorized
// strategies resolve slice prefix dependencies with SumPacked; a
// value-wise decoder decodes the whole page and slices (which is what it
// must do). A miss necessarily materializes the decoded column, so this
// is where the hot cursor path is allowed to allocate (amortized by the
// cache).
//
//etsqp:coldpath
func (e *Engine) decodeColumnRangeUncached(p *storage.Page, from, to int, col *statsCollector) (vals []int64, err error) {
	if err := readPage(p, col); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		if col == nil && !obs.Enabled() {
			return
		}
		elapsed := int64(time.Since(start))
		if col != nil {
			col.decodeNanos.Add(elapsed)
		}
		obs.EngineHistPageDecode.Observe(elapsed)
	}()
	full := from == 0 && to == p.Header.Count
	var blk ts2diff.Block
	if e.Mode.strategy().valueWiseDecode {
		if p.Header.Codec == "fastlanes" && !full {
			// Block-granular slicing: decode only the FLMM1024 blocks the
			// range touches (fair thread distribution, Section VII-C).
			return fastlanes.DecodeRangeBlocks(p.Data, from, to)
		}
	} else if ok, err := pageBlock(&blk, p); err != nil {
		return nil, err
	} else if ok {
		return pipeline.DecodeRange(&blk, from, to)
	}
	c, err := encoding.Lookup(p.Header.Codec)
	if err != nil {
		return nil, err
	}
	all, err := c.Decode(p.Data)
	if err := p.PayloadRows(len(all), err); err != nil {
		return nil, err
	}
	if full {
		return all, nil
	}
	return all[from:to], nil
}

// constantIntervalOf reports the page's constant time interval, when its
// time column is a width-0 order-2 TS2DIFF block and the strategy
// exploits it (the Serial and SBoost baselines decode every timestamp).
// A job that takes the interval never reads the time page again, so the
// checksum is verified here: a corrupt page reports not-ok, and the
// timestamp decode the caller falls back to returns storage.ErrCorrupt.
func (p *plan) constantIntervalOf(page *storage.Page) (int64, bool) {
	if !p.strat.constInterval {
		return 0, false
	}
	var blk ts2diff.Block
	if ok, _ := pageBlock(&blk, page); !ok {
		return 0, false
	}
	interval, ok := pipeline.ConstantInterval(&blk)
	return interval, ok && page.VerifyChecksum() == nil
}

// deltaRuns extracts Delta-Repeat pairs when the page uses the
// RLBE codec — the representation Section IV's fused aggregations
// consume — into *runs, a buffer the caller reuses from page to page. ok
// is false for other codecs; a block that does not parse, whose runs do
// not total its count (rlbe.Block.AppendPairs), or whose count is not
// the header's is an error, never a sum over what the runs hold.
func deltaRuns(p *storage.Page, runs *[]encoding.DeltaRun) (first int64, pairs []encoding.DeltaRun, ok bool, err error) {
	if p.Header.Codec != "rlbe" {
		return 0, nil, false, nil
	}
	var blk rlbe.Block
	err = blk.UnmarshalBinary(p.Data)
	rows := 0
	if err == nil {
		first, rows = blk.First, blk.Count
		*runs, err = blk.AppendPairs((*runs)[:0])
	}
	err = p.PayloadRows(rows, err)
	return first, *runs, err == nil, err
}

// Slice is one unit of core-level work: either a whole page pair or a
// row range of one (Section III-C / Figure 8).
type Slice struct {
	Pair     storage.PagePair
	StartRow int // inclusive
	EndRow   int // exclusive
}

// Rows returns the number of rows covered by the slice.
func (s Slice) Rows() int { return s.EndRow - s.StartRow }

// jobsFor builds the pipeline jobs, in page order. Following the paper's
// scheduler (Section III-C), ETSQP-family strategies deal whole pages
// when there are at least as many pages as workers (no slice
// dependencies, no idle cores); only when pages are scarce is each page
// cut into ceil(workers/#pages) slices so every core gets work. SBoost
// always slices every page across all workers, paying the per-slice
// prefix dependency.
func (e *Engine) jobsFor(pairs []storage.PagePair) []Slice {
	w := e.workers()
	per := e.ForceSlices
	if per <= 0 && e.Mode.strategy().sliceEveryPage {
		per = w
	}
	if per <= 0 && len(pairs) > 0 {
		per = (w + len(pairs) - 1) / len(pairs)
	}
	out := make([]Slice, 0, len(pairs))
	for _, pp := range pairs {
		out = appendSlices(out, pp, per)
	}
	return out
}

// appendSlices cuts one page pair into up to n row-aligned slices and
// appends them to dst. Interior boundaries are aligned to 8-row
// multiples so constant-width slices start on whole unpack vectors (same
// bits per element, as the paper requires for constant packing widths);
// the final slice absorbs the remainder.
func appendSlices(dst []Slice, pp storage.PagePair, n int) []Slice {
	rows := pp.Count()
	n = max(min(n, rows), 1)
	start, first := 0, len(dst)
	for i := 0; i < n-1; i++ {
		end := start + rows/n
		end -= end % 8
		if end <= start {
			continue
		}
		dst = append(dst, Slice{Pair: pp, StartRow: start, EndRow: end})
		start = end
	}
	if start < rows || rows == 0 {
		dst = append(dst, Slice{Pair: pp, StartRow: start, EndRow: rows})
	}
	obs.PipelineSlices.Add(int64(len(dst) - first))
	return dst
}

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
	start := time.Now()
	err := p.VerifyChecksum()
	col.pagesRead.Add(1)
	col.bytesScanned.Add(int64(len(p.Data)))
	col.ioNanos.Add(int64(time.Since(start)))
	return err
}

// What a page read parsed its payload as.
const (
	formNone  = iota // not read: the codec's own decoder reads the page
	formBlock        // a TS2DIFF block
	formRuns         // an RLBE page's Delta-Repeat runs
)

// pageRead is a job's one read of a page: the checksum verified and the
// read charged once (readPage), and the payload parsed once by codec.
// Every route that reads the job's values — the closed forms, the
// scanner, the decode and the FIRST/LAST boundary rows — reads this one
// parse, so no route reads the page again.
type pageRead struct {
	form  uint8
	blk   ts2diff.Block       // formBlock
	first int64               // formRuns: row 0
	runs  []encoding.DeltaRun // formRuns: the runs after row 0
}

// read reads pg into r once — the payload parsed, the checksum verified
// and the read charged (readPage) — when it is a TS2DIFF block or, given
// a run buffer the caller reuses from page to page, RLBE runs: the
// representation Section IV's fused aggregations consume. For any other
// codec it reports false with nothing read or charged, and the caller
// decodes the page the codec's way. A payload that does not parse, or
// holds another number of rows than the header (PayloadRows; RLBE runs
// that do not total the block's count fail AppendPairs), is an error.
func (r *pageRead) read(pg *storage.Page, runs *[]encoding.DeltaRun, col *statsCollector) (ok bool, err error) {
	var rows int
	switch c := pg.Header.Codec; {
	case c == "ts2diff" || c == "ts2diff2":
		err = r.blk.UnmarshalBinary(pg.Data)
		rows, r.form = r.blk.Count, formBlock
	case c == "rlbe" && runs != nil:
		var blk rlbe.Block
		if err = blk.UnmarshalBinary(pg.Data); err == nil {
			*runs, err = blk.AppendPairs((*runs)[:0])
		}
		r.first, r.runs, rows, r.form = blk.First, *runs, blk.Count, formRuns
	default:
		return false, nil
	}
	if err = pg.PayloadRows(rows, err); err != nil {
		r.form = formNone
		return false, err
	}
	return true, readPage(pg, col)
}

// at returns row i of the page r read: on a block from pipeline.Prefix,
// whose difference an order-2 page's last row adds, and on runs by
// walking them. Both wrap mod 2^64 like the decode they stand in for.
func (r *pageRead) at(i int) (int64, error) {
	if r.form == formRuns {
		v, row := r.first, 0
		for _, p := range r.runs {
			if i <= row+p.Count {
				return v + int64(i-row)*p.Delta, nil
			}
			v += int64(p.Count) * p.Delta
			row += p.Count
		}
		return v, nil
	}
	e := min(i, r.blk.NumPacked())
	v, d, err := pipeline.Prefix(&r.blk, e)
	if i > e {
		v += d
	}
	return v, err
}

// decodeColumnRange decodes rows [from, to) of a page column, consulting
// the decoded-page cache first. A hit returns the shared cached slice
// (or a subslice of it) without touching the payload — no load, no
// checksum, no decode — which is the concurrent-workload win the cache
// exists for. A miss decodes from r, reading the page into it first
// unless the job already did. Full-page misses are decoded and admitted;
// partial-range decodes are never admitted (they would poison the
// full-page key). Cached slices are shared across queries: callers must
// treat every return value as read-only.
func (e *Engine) decodeColumnRange(ser string, p *storage.Page, r *pageRead, from, to int, col *statsCollector) ([]int64, error) {
	if e.Cache != nil {
		if v, ok := e.Cache.Get(p); ok {
			col.cacheHits.Add(1)
			return v[from:to], nil
		}
		col.cacheMisses.Add(1)
	}
	vals, err := e.decodeColumnRangeUncached(p, r, from, to, col)
	if err == nil && e.Cache != nil && from == 0 && to == p.Header.Count {
		e.Cache.Put(ser, p, vals)
	}
	return vals, err
}

// decodeColumnRangeUncached is the decode path proper. Vectorized
// strategies decode a TS2DIFF block through the RangeScanner, which
// resolves a slice's prefix dependency with SumPacked; a value-wise
// decoder decodes the whole page and slices (which is what it must do).
// A miss necessarily materializes the decoded column, so this is where
// the hot cursor path is allowed to allocate (amortized by the cache).
//
//etsqp:coldpath
func (e *Engine) decodeColumnRangeUncached(p *storage.Page, r *pageRead, from, to int, col *statsCollector) (vals []int64, err error) {
	valueWise := e.Mode.strategy().valueWiseDecode
	ok := r.form != formNone
	if !ok && !valueWise {
		ok, err = r.read(p, nil, col)
	}
	if !ok && err == nil {
		err = readPage(p, col)
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		elapsed := int64(time.Since(start))
		col.decodeNanos.Add(elapsed)
		obs.EngineHistPageDecode.Observe(elapsed)
	}()
	full := from == 0 && to == p.Header.Count
	switch {
	case r.form == formBlock:
		return pipeline.DecodeRange(&r.blk, from, to)
	case r.form == formRuns:
		return encoding.DeltaRLEDecode(r.first, r.runs)[from:to], nil
	case valueWise && p.Header.Codec == "fastlanes" && !full:
		// Block-granular slicing: decode only the FLMM1024 blocks the
		// range touches (fair thread distribution, Section VII-C).
		return fastlanes.DecodeRangeBlocks(p.Data, from, to)
	}
	c, err := encoding.Lookup(p.Header.Codec)
	if err != nil {
		return nil, err
	}
	all, err := c.Decode(p.Data)
	if err := p.PayloadRows(len(all), err); err != nil {
		return nil, err
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
	if c := page.Header.Codec; c != "ts2diff" && c != "ts2diff2" || blk.UnmarshalBinary(page.Data) != nil {
		return 0, false
	}
	interval, ok := pipeline.ConstantInterval(&blk)
	return interval, ok && page.PayloadRows(blk.Count, nil) == nil && page.VerifyChecksum() == nil
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

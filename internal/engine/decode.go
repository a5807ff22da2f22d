package engine

import (
	"sync/atomic"
	"time"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/rlbe"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/fastlanes"
	"etsqp/internal/obs"
	"etsqp/internal/pipeline"
	"etsqp/internal/storage"
)

// What a page read parsed its payload as.
const (
	formNone  = iota // not read: the codec's own decoder reads the page
	formBlock        // a TS2DIFF block
	formRuns         // an RLBE page's Delta-Repeat runs
)

// pageRead is a job's one read of a page: the payload parsed once by
// codec, and opened — verified and charged — at most once per query
// (open). Every route that reads the job's values — the closed forms,
// the scanner, the decode and the FIRST/LAST boundary rows — reads this
// one parse, so no route reads the page again.
type pageRead struct {
	form  uint8
	once  *atomic.Bool        // a cut page's flag, shared by its slices; nil: the job is the page's one reader
	blk   ts2diff.Block       // formBlock
	first int64               // formRuns: row 0
	runs  []encoding.DeltaRun // formRuns: the runs after row 0
}

// formOf names what a page of the codec parses as: a TS2DIFF block, RLBE
// runs — the representations Section IV's fused aggregations consume,
// and the block the scanner reads — or neither.
func formOf(codec string) uint8 {
	switch codec {
	case "ts2diff", "ts2diff2":
		return formBlock
	case "rlbe":
		return formRuns
	}
	return formNone
}

// parse parses pg into r, when it is a TS2DIFF block or, given a run
// buffer the caller reuses from page to page, RLBE runs; it charges no
// read. For any other codec it reports false with nothing parsed, and
// the caller decodes the page the codec's way. A payload that does not
// parse, or holds another number of rows than the header (PayloadRows;
// RLBE runs that do not total the block's count fail AppendPairs), is
// an error.
func (r *pageRead) parse(pg *storage.Page, runs *[]encoding.DeltaRun) (ok bool, err error) {
	var rows int
	switch form := formOf(pg.Header.Codec); {
	case form == formBlock:
		err = r.blk.UnmarshalBinary(pg.Data)
		rows, r.form = r.blk.Count, formBlock
	case form == formRuns && runs != nil:
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
	return true, nil
}

// read completes r as the job's read of pg: the payload parsed unless
// it already is, then opened.
func (r *pageRead) read(pg *storage.Page, runs *[]encoding.DeltaRun, col *statsCollector) (ok bool, err error) {
	if r.form == formNone {
		if ok, err = r.parse(pg, runs); !ok {
			return false, err
		}
	}
	return true, r.open(pg, col)
}

// open is the memory-I/O stage of the pipeline, once per page per query
// on every path that reads a payload: it verifies pg's checksum and adds
// one page read to col — pagesRead, bytesScanned and the verification's
// time as the io stage (Figure 14(b)); a nil col verifies alone. A job
// opens each page it reads once. The slices of a cut page share one
// flag, so the first to open it verifies and charges it, and its
// siblings read the same bytes and do neither: a corrupt page fails its
// first reader and with it the batch, so no result is built from bytes
// a sibling read unverified. Payloads are read in place: a published
// page is immutable, so no path copies one.
func (r *pageRead) open(pg *storage.Page, col *statsCollector) error {
	if r.once != nil && r.once.Swap(true) {
		return nil
	}
	start := time.Now()
	err := pg.VerifyChecksum()
	if col != nil {
		col.pagesRead.Add(1)
		col.bytesScanned.Add(int64(len(pg.Data)))
		col.ioNanos.Add(int64(time.Since(start)))
	}
	return err
}

// at returns row i of the page r read: on a block from a scanner reset
// to row i, and on runs by walking them. Both wrap mod 2^64 like the
// decode they stand in for.
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
	var s pipeline.RangeScanner
	var v [1]int64
	if err := s.Reset(&r.blk, i); err != nil {
		return 0, err
	}
	n, err := s.Next(v[:])
	obs.PipelineValuesUnpacked.Add(int64(n))
	return v[0], err
}

// decodeColumnRange decodes rows [from, to) of a page column, consulting
// the decoded-page cache first. A hit returns the shared cached slice
// (or a subslice of it) without touching the payload — no load, no
// checksum, no decode — which is the concurrent-workload win the cache
// exists for. A miss decodes from r, completing the job's read of the
// page first. A stop below the page's last value lets a TS2DIFF decode
// stop short (decodeUntil) in the caller's buf; such a decode is not
// admitted, nor is a partial one, which would poison the full-page key.
// Cached slices are shared: callers must treat every return as read-only.
func (e *Engine) decodeColumnRange(ser string, p *storage.Page, r *pageRead, from, to int, stop int64, buf []int64, col *statsCollector) ([]int64, error) {
	if e.Cache != nil {
		if v, ok := e.Cache.Get(p); ok {
			col.cacheHits.Add(1)
			return v[from:to], nil
		}
		col.cacheMisses.Add(1)
	}
	vals, err := e.decodeColumnRangeUncached(p, r, from, to, stop, buf, col)
	if err == nil && e.Cache != nil && from == 0 && to == p.Header.Count && stop >= p.Header.EndTime {
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
func (e *Engine) decodeColumnRangeUncached(p *storage.Page, r *pageRead, from, to int, stop int64, buf []int64, col *statsCollector) (vals []int64, err error) {
	valueWise := e.Mode.strategy().valueWiseDecode
	ok := false
	if !valueWise {
		ok, err = r.read(p, nil, col)
	}
	if !ok && err == nil {
		err = r.open(p, col)
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
	switch {
	case r.form == formBlock && stop < p.Header.EndTime:
		return decodeUntil(&r.blk, from, to, stop, buf, col)
	case r.form == formBlock:
		return pipeline.DecodeRange(&r.blk, from, to)
	case r.form == formRuns:
		return encoding.DeltaRLEDecode(r.first, r.runs)[from:to], nil
	case valueWise && p.Header.Codec == "fastlanes" && (from > 0 || to < p.Header.Count):
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

// decodeUntil decodes rows [from, to) of a sorted time block into buf
// in gridChunk chunks and stops after the first chunk holding a
// timestamp past stop (Proposition 4's stop). The rows from the first
// such one on count as pruned; the decode returns the rows up to its
// chunk's end, and adds them to pipeline.values_unpacked once.
func decodeUntil(b *ts2diff.Block, from, to int, stop int64, buf []int64, col *statsCollector) ([]int64, error) {
	var s pipeline.RangeScanner
	if err := s.Reset(b, from); err != nil {
		return nil, err
	}
	ts := buf[:to-from]
	n := 0
	var err error
	for n < len(ts) {
		var k int
		if k, err = s.Next(ts[n : n+gridChunk(from+n, to)]); err != nil || k == 0 {
			break
		}
		if n += k; ts[n-1] > stop {
			col.rowsPruned.Add(int64(to - rowClock{ts: ts[:n], start: from}.row(stop+1, from+n-k, from+n)))
			obs.PruneStopsTime.Inc()
			break
		}
	}
	obs.PipelineValuesUnpacked.Add(int64(n))
	return ts[:n], err
}

// Slice is one unit of core-level work: either a whole page pair or a
// row range of one (Section III-C / Figure 8).
type Slice struct {
	Pair     storage.PagePair
	Page     int // the pair's index in the planned pages
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
	for i, pp := range pairs {
		n := len(out)
		out = appendSlices(out, pp, per)
		for k := n; k < len(out); k++ {
			out[k].Page = i
		}
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

package pipeline

import (
	"errors"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/obs"
)

// RangeScanner is the one cursor that rebuilds rows from a TS2DIFF
// block: the prefix to the start row is resolved once, and each Next
// call continues from the previous position in O(chunk) — the streaming
// shape the Proposition 4/5 stop rules need, without re-resolving the
// Figure 8 prefix per chunk. DecodeBlockInto and DecodeRange are
// single Next calls on a stack-allocated scanner. Every
// field, at every width, order and start row, comes from the scanner's
// one bitio.Reader.
type RangeScanner struct {
	// b is a copy: a stored pointer would move the caller's block,
	// parsed onto its stack, to the heap.
	b     ts2diff.Block
	row   int   // next row to emit
	cur   int64 // value at row-1 (undefined when row == 0)
	delta int64 // order-2 only: the first difference last applied
	r     bitio.Reader
}

// NewRangeScanner positions a new scanner at startRow of a block.
func NewRangeScanner(b *ts2diff.Block, startRow int) (*RangeScanner, error) {
	s := new(RangeScanner)
	if err := s.Reset(b, startRow); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeRows fills out with rows [from, from+len(out)) of the block,
// adding them to pipeline.values_unpacked once.
func decodeRows(out []int64, b *ts2diff.Block, from int) error {
	var s RangeScanner
	if err := s.Reset(b, from); err != nil {
		return err
	}
	n, err := s.Next(out)
	if obs.Enabled() {
		obs.PipelineValuesUnpacked.Add(int64(n))
	}
	return err
}

// Reset's answers for a block or start row it cannot position on.
var (
	errOrder    = errors.New("pipeline: unknown TS2DIFF order")
	errStartRow = errors.New("pipeline: start row outside the block")
)

// Reset positions the scanner at startRow of a block, so a caller that
// scans page after page keeps one scanner by value. Row r consumes
// packed field r-1 at order 1 and field r-2 at order 2 (rows 0 and 1
// consume none); prefix resolves the fields before startRow.
func (s *RangeScanner) Reset(b *ts2diff.Block, startRow int) error {
	if b.Order != ts2diff.Order1 && b.Order != ts2diff.Order2 {
		return errOrder
	}
	if startRow < 0 || startRow > b.Count {
		return errStartRow
	}
	*s = RangeScanner{b: *b, r: *bitio.NewReader(b.Packed)}
	if startRow == 0 {
		return nil
	}
	e := startRow - 1
	if b.Order == ts2diff.Order2 {
		e = max(startRow-2, 0)
	}
	cur, delta, err := prefix(b, e)
	if err != nil {
		return err
	}
	s.row, s.cur, s.delta = startRow, cur, delta
	if b.Order == ts2diff.Order2 && startRow > 1 {
		// next2 keeps the difference it last applied: row startRow-1 is
		// row e plus that difference.
		s.cur += delta
	}
	return s.r.Seek(e * int(b.Width))
}

// prefix resolves the slice prefix dependency (Figure 8: P1S2 waits on
// P1S1) without producing rows. It returns the recurrence state after
// the first e packed fields of a block, 0 <= e <= b.NumPacked(): value
// is row e, and on an order-2 block delta is the first difference that
// row e+1 adds (FirstDelta plus the first e fields). An order-1 value is
// First plus SumPacked over the fields; an order-2 start depends on a
// second prefix level, so the recurrence is replayed (time pages are
// usually width 0 and never decoded at all — see ConstantInterval).
// Both wrap mod 2^64 like the decode they stand in for, so a stored
// value comes out exact whatever its prefix passed through.
func prefix(b *ts2diff.Block, e int) (value, delta int64, err error) {
	if obs.Enabled() {
		obs.PipelinePrefixFixups.Inc()
	}
	if b.Order != ts2diff.Order2 {
		skip, err := SumPacked(b.Packed, e, b.Width)
		if err != nil {
			return 0, 0, err
		}
		return b.First + b.MinBase*int64(e) + int64(skip), 0, nil
	}
	r := bitio.NewReader(b.Packed)
	var fields [256]int64
	value, delta = b.First, b.FirstDelta
	for e > 0 {
		n := min(e, len(fields))
		if err := r.ReadFields(fields[:n], b.Width); err != nil {
			return 0, 0, err
		}
		for _, f := range fields[:n] {
			value += delta
			delta += b.MinBase + f
		}
		e -= n
	}
	return value, delta, nil
}

// Row reports the next row the scanner will emit.
func (s *RangeScanner) Row() int { return s.row }

// Next decodes up to len(dst) rows, returning how many were produced
// (0 at the end of the block). It counts nothing: a caller adds the rows
// of its decode or job to pipeline.values_unpacked once, so no chunk
// pays a shared atomic.
//
//etsqp:hotpath
func (s *RangeScanner) Next(dst []int64) (int, error) {
	n := len(dst)
	if rem := s.b.Count - s.row; rem < n {
		n = rem
	}
	if n <= 0 {
		return 0, nil
	}
	var err error
	if s.b.Order == ts2diff.Order2 {
		err = s.next2(dst[:n])
	} else {
		err = s.next1(dst[:n])
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// next1 advances an order-1 scan by len(dst) rows: row r consumes packed
// field r-1. The fields are unpacked into dst in bulk, then folded in
// place into the running value. Accumulation wraps intentionally: Delta
// encode and decode are inverse mod 2^64, so checked adds here would
// reject values that round-trip correctly.
//
//etsqp:hotpath
func (s *RangeScanner) next1(dst []int64) error {
	if s.row == 0 {
		s.cur = s.b.First
		dst[0] = s.cur
		s.row = 1
		dst = dst[1:]
	}
	if err := s.r.ReadFields(dst, s.b.Width); err != nil {
		return err
	}
	cur, minBase := s.cur, s.b.MinBase
	for i, f := range dst {
		cur += minBase + f
		dst[i] = cur
	}
	s.row += len(dst)
	s.cur = cur
	return nil
}

// errNotOrder1 is ScanFold's and SumNext's answer for an order-2 block,
// whose rows take next2's two-level recurrence.
var errNotOrder1 = errors.New("pipeline: ScanFold and SumNext take order-1 blocks only")

// ScanFold advances an order-1 scan by up to len(scratch) rows without
// keeping them. It returns the count and the wrapping sum of the rows v
// with v-c1 <= span as unsigned distances (for c1 <= c2 and span =
// c2-c1, exactly the rows in [c1, c2]), and the value of the last row it
// advanced over. This is next1 and the engine's branch-free range fold
// in one pass: the chunk's fields are unpacked into scratch by one
// ReadFields call, and the prefix, the range test and the accumulation
// run over them in one loop. The recurrence runs on d = v-c1 rather
// than on v, which the range test needs anyway; the selected rows' sum
// is then count·c1 plus theirs. A chunk that starts on the payload's
// 64-field grid (at a row ≡ 1 mod 64) unpacks as whole generated-kernel
// groups, plus the page's last partial group. Like Next it is all or
// nothing: on an error the scanner has not moved. Like Next it leaves
// pipeline.values_unpacked to its caller, which adds a page's rows once.
//
//etsqp:hotpath
//etsqp:noescape
func (s *RangeScanner) ScanFold(scratch []int64, c1 int64, span uint64) (count, sum, last int64, err error) {
	if s.b.Order != ts2diff.Order1 {
		return 0, 0, 0, errNotOrder1
	}
	fields := scratch[:min(len(scratch), s.b.Count-s.row)]
	n := len(fields)
	d := uint64(s.cur) - uint64(c1)
	var selected, total uint64
	if s.row == 0 && n > 0 {
		// Row 0 is First and consumes no field.
		d = uint64(s.b.First) - uint64(c1)
		if d <= span {
			selected, total = 1, d
		}
		fields = fields[1:]
	}
	if err := s.r.ReadFields(fields, s.b.Width); err != nil {
		return 0, 0, 0, err
	}
	minBase := uint64(s.b.MinBase)
	for _, f := range fields {
		d += minBase + uint64(f)
		keep := uint64(0)
		if d <= span {
			keep = ^uint64(0)
		}
		selected -= keep
		total += d & keep
	}
	last = int64(d + uint64(c1))
	s.row, s.cur = s.row+n, last
	return int64(selected), int64(total + selected*uint64(c1)), last, nil
}

// SumNext advances an order-1 scan by up to len(scratch) rows without
// keeping them, and returns how many it advanced over and their exact
// sum: next1 and the sum in one pass, as ScanFold is next1 and the range
// fold. The chunk's fields are unpacked into scratch by one ReadFields
// call, and one loop runs the prefix and accumulates, beside the
// wrapping Σv, the wrapping Σ(v>>32). Each row v is its stored value
// (the prefix wraps as the decode does), and v = 2^32·(v>>32) + (v mod
// 2^32) with v>>32 in [-2^31, 2^31) and v mod 2^32 in [0, 2^32): over
// at most 2^31 rows Σ(v>>32) lies inside int64 and Σ(v mod 2^32) below
// 2^63, so both come out exact from their wrapping sums — the second as
// Σv − 2^32·Σ(v>>32) mod 2^64 — and the Int128 of the two is Σv exactly,
// at every width, MinBase and First (engine.rangeFold's split). A chunk
// that starts on the payload's 64-field grid (at a row ≡ 1 mod 64)
// unpacks as whole generated-kernel groups, plus the page's last
// partial group. Like ScanFold it is all or nothing — on an error the
// scanner has not moved — and leaves pipeline.values_unpacked to its
// caller.
//
//etsqp:hotpath
//etsqp:noescape
func (s *RangeScanner) SumNext(scratch []int64) (n int, sum encoding.Int128, err error) {
	if s.b.Order != ts2diff.Order1 {
		return 0, sum, errNotOrder1
	}
	fields := scratch[:min(len(scratch), s.b.Count-s.row)]
	n = len(fields)
	v := uint64(s.cur)
	var total, high uint64
	if s.row == 0 && n > 0 {
		// Row 0 is First and consumes no field.
		v = uint64(s.b.First)
		total, high = v, uint64(s.b.First>>32)
		fields = fields[1:]
	}
	if err := s.r.ReadFields(fields, s.b.Width); err != nil {
		return 0, sum, err
	}
	minBase := uint64(s.b.MinBase)
	for _, f := range fields {
		v += minBase + uint64(f)
		total += v
		high += uint64(int64(v) >> 32)
	}
	s.row, s.cur = s.row+n, int64(v)
	return n, sum.AddMul(int64(high), 1<<32).AddInt64(int64(total - high<<32)), nil
}

// next2 advances an order-2 scan by len(dst) rows via the two-level
// recurrence: delta_r = delta_{r-1} + dd_{r-2}, value_r = value_{r-1} +
// delta_r, with delta_1 = FirstDelta — so rows 0 and 1 consume no field.
//
//etsqp:hotpath
func (s *RangeScanner) next2(dst []int64) error {
	if s.row == 0 {
		s.cur = s.b.First
		s.delta = s.b.FirstDelta
		dst[0] = s.cur
		s.row = 1
		dst = dst[1:]
	}
	if s.row == 1 && len(dst) > 0 {
		s.cur += s.delta
		dst[0] = s.cur
		s.row = 2
		dst = dst[1:]
	}
	if err := s.r.ReadFields(dst, s.b.Width); err != nil {
		return err
	}
	cur, delta, minBase := s.cur, s.delta, s.b.MinBase
	for i, f := range dst {
		delta += minBase + f
		cur += delta
		dst[i] = cur
	}
	s.row += len(dst)
	s.cur, s.delta = cur, delta
	return nil
}

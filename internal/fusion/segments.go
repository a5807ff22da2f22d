package fusion

import (
	"errors"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/obs"
	"etsqp/internal/pipeline"
)

// Segment kernels: sliding windows that overlap (slide < width) share
// rows, so re-running a range kernel per window re-reads the same
// encoded data O(windows) times. Instead the window boundaries cut the
// row range into disjoint segments, each kernel pass fills *all* segment
// sums at once, and every window is the sum of a contiguous segment run
// — the incremental-sharing evaluation of Section VI's G_sw on top of
// the Proposition 3 closed forms.

// validateCuts checks that cuts is a strictly increasing partition with
// one more entry than sums.
func validateCuts(cuts []int, nsums int) error {
	if len(cuts) != nsums+1 {
		return errors.New("fusion: cuts must have len(sums)+1 entries")
	}
	if len(cuts) > 0 && cuts[0] < 0 {
		return errors.New("fusion: negative cut")
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return errors.New("fusion: cuts must be strictly increasing")
		}
	}
	return nil
}

// SumRangeSegmentsExact fills sums[i] with the exact Σ of the stored
// rows [cuts[i], cuts[i+1]) of the flattened Delta-Repeat series,
// walking the runs exactly once. A run spanning several segments
// contributes one closed-form partial (Proposition 3), n·cur + Δ·Σj in
// 128 bits, per overlapped segment; segments beyond the series' row
// count stay partial or zero.
//
// Deltas wrap at encode, so a stored row is its predecessor plus Δ mod
// 2^64, and the closed form in ℤ is the stored rows' sum only while the
// run's progression cur + jΔ stays inside int64. The progression is
// monotone, so its end cur + count·Δ decides; a run that leaves is
// summed from its stored rows. The walk cannot overflow.
//
//etsqp:hotpath
func SumRangeSegmentsExact(first int64, pairs []encoding.DeltaRun, cuts []int, sums []encoding.Int128) error {
	if err := validateCuts(cuts, len(sums)); err != nil {
		return err
	}
	clear(sums)
	if len(sums) == 0 {
		return nil
	}
	// Row 0 holds `first`; run p then covers rows idx+1 .. idx+Count with
	// values cur + jΔ (j = row - idx).
	if cuts[0] == 0 {
		sums[0] = sums[0].AddInt64(first)
	}
	last := cuts[len(cuts)-1]
	cur := first
	idx := 0
	s := 0
	for _, p := range pairs {
		runEnd := idx + p.Count
		if idx+1 >= last {
			break
		}
		_, inRange := encoding.Int128{}.AddInt64(cur).AddMul(p.Delta, uint64(p.Count)).Int64()
		for s < len(sums) && cuts[s+1] <= idx+1 {
			s++
		}
		for t := s; t < len(sums) && cuts[t] <= runEnd; t++ {
			lo := max(cuts[t], idx+1)
			hi := min(cuts[t+1]-1, runEnd) // inclusive last row of the segment
			switch {
			case lo > hi:
			case inRange:
				sums[t] = sums[t].AddMul(cur, uint64(hi-lo+1))
				sums[t] = sums[t].AddMul(p.Delta, rampWeight(lo-idx, hi-idx))
			default: // the stored rows, each the last plus Δ mod 2^64
				for v, j := cur+p.Delta*int64(lo-idx), lo; j <= hi; v, j = v+p.Delta, j+1 {
					sums[t] = sums[t].AddInt64(v)
				}
			}
		}
		cur += p.Delta * int64(p.Count) // the stored row, wrapped as decoded
		idx = runEnd
	}
	return nil
}

// rampWeight is Σ_{j=j0..j1} j = (j0+j1)(j1−j0+1)/2 for 0 <= j0 <= j1,
// modulo 2^64: the sum and the width differ in parity, so the even one
// is halved exactly before the wrapping multiply (by shifts, not a
// branch on data). Within a page (j1 < 2^32) it is exact.
//
//etsqp:inline
func rampWeight(j0, j1 int) uint64 {
	s, w := uint64(j0)+uint64(j1), uint64(j1-j0)+1
	odd := s & 1 // then w is the even one
	return (s >> (odd ^ 1)) * (w >> odd)
}

// SumBlockSegmentsExact fills sums[i] with the exact Σ of rows
// [cuts[i], cuts[i+1]) of a TS2DIFF block at either order: one
// pipeline.RangeScanner, positioned at cuts[0] by Reset, walks the rows
// once through a fixed-size stack chunk that ends at each segment's end
// — one pass regardless of how many windows cut the block, and a plain
// range is the one-segment case. Cuts past b.Count contribute what
// exists. Every other chunk end is on the payload's 64-field grid, so
// each chunk but a segment's or the page's last unpacks as whole
// generated-kernel groups: row r reads packed field r-1 at order 1 and
// r-2 at order 2, so a chunk ends at a row ≡ 1 (mod 64) at order 1 and
// ≡ 2 at order 2. An order-1 chunk is folded where it is unpacked (RangeScanner.SumNext),
// one exact Int128 per chunk; an order-2 chunk is decoded (Next) and
// each row added into the segment's Int128. The scanner wraps as the
// decode does, so each row is its stored value exactly: the walk cannot
// overflow. It adds its rows to pipeline.values_unpacked once per call.
//
//etsqp:hotpath
func SumBlockSegmentsExact(b *ts2diff.Block, cuts []int, sums []encoding.Int128) error {
	if err := validateCuts(cuts, len(sums)); err != nil {
		return err
	}
	clear(sums)
	if len(sums) == 0 {
		return nil
	}
	to := min(cuts[len(cuts)-1], b.Count)
	if to <= cuts[0] {
		return nil
	}
	var s pipeline.RangeScanner
	if err := s.Reset(b, cuts[0]); err != nil {
		return err
	}
	lag := 1
	if b.Order == ts2diff.Order2 {
		lag = 2
	}
	var chunk [128]int64
	for i := 0; s.Row() < to; i++ {
		end := min(cuts[i+1], to)
		var sum encoding.Int128
		for row := s.Row(); row < end; row = s.Row() {
			buf := chunk[:min(end-row, len(chunk)-(row-lag)&63)]
			if lag == 1 {
				_, part, err := s.SumNext(buf)
				if err != nil {
					return err
				}
				sum = sum.Add(part)
				continue
			}
			n, err := s.Next(buf)
			if err != nil {
				return err
			}
			for _, v := range chunk[:n] {
				sum = sum.AddInt64(v)
			}
		}
		sums[i] = sum
	}
	if obs.Enabled() {
		obs.PipelineValuesUnpacked.Add(int64(to - cuts[0]))
	}
	return nil
}

// segmentPage is a page the exact segment kernels read: a TS2DIFF block,
// or Delta-Repeat runs after a first row.
type segmentPage struct {
	b     *ts2diff.Block
	first int64
	pairs []encoding.DeltaRun
}

// SumRangeSegments is SumRangeSegmentsExact narrowed to int64 sums, and
// SumBlockSegments is SumBlockSegmentsExact narrowed: each returns
// ErrOverflow when a segment's exact sum leaves int64. Queries call the
// exact kernels; these, and the whole-page Sum and SumBlock on them,
// stay for the benchmark probes and Fig 14 until they time the exact
// ones (ROADMAP 1A(a)).
//
//etsqp:hotpath
func SumRangeSegments(first int64, pairs []encoding.DeltaRun, cuts []int, sums []int64) error {
	return segmentPage{first: first, pairs: pairs}.narrow(cuts, sums)
}

// SumBlockSegments: see SumRangeSegments.
//
//etsqp:hotpath
func SumBlockSegments(b *ts2diff.Block, cuts []int, sums []int64) error {
	return segmentPage{b: b}.narrow(cuts, sums)
}

// Sum is the exact Σ of the stored rows of a Delta-Repeat series (first
// value plus pairs): SumRangeSegments over the whole page, so it reports
// ErrOverflow only when that total leaves int64. Cost: O(#pairs) while
// the runs stay inside int64.
//
//etsqp:hotpath
func Sum(first int64, pairs []encoding.DeltaRun) (int64, error) {
	cuts, sum := [2]int{0, Count(pairs)}, [1]int64{}
	err := SumRangeSegments(first, pairs, cuts[:], sum[:])
	return sum[0], err
}

// SumBlock is the exact Σ of a TS2DIFF block's rows at either order:
// SumBlockSegments over the whole block, one pass over the packed
// deltas. An empty block sums to 0.
//
//etsqp:hotpath
func SumBlock(b *ts2diff.Block) (int64, error) {
	if b.Count == 0 {
		return 0, nil
	}
	cuts, sum := [2]int{0, b.Count}, [1]int64{}
	err := SumBlockSegments(b, cuts[:], sum[:])
	return sum[0], err
}

// narrow runs the page's exact kernel over up to 32 segments at a time
// into a stack array, so it allocates nothing, and narrows each sum.
func (pg segmentPage) narrow(cuts []int, sums []int64) error {
	if err := validateCuts(cuts, len(sums)); err != nil {
		return err
	}
	var exact [32]encoding.Int128
	for k := 0; k < len(sums); k += len(exact) {
		n := min(len(sums)-k, len(exact))
		var err error
		if pg.b != nil {
			err = SumBlockSegmentsExact(pg.b, cuts[k:k+n+1], exact[:n])
		} else {
			err = SumRangeSegmentsExact(pg.first, pg.pairs, cuts[k:k+n+1], exact[:n])
		}
		if err != nil {
			return err
		}
		for i, e := range exact[:n] {
			v, ok := e.Int64()
			if !ok {
				return ErrOverflow
			}
			sums[k+i] = v
		}
	}
	return nil
}

package fusion

import (
	"errors"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
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
// [cuts[i], cuts[i+1]) of a TS2DIFF block, streaming the packed deltas
// once through a fixed-size stack chunk for both orders — one decode
// pass regardless of how many windows cut the block, and a plain range
// is the one-segment case. Cuts past b.Count contribute what exists.
// The walk starts near cuts[0], not at row 1: pipeline.Prefix, the
// resolution RangeScanner.Reset uses, supplies the value there. The
// recurrence wraps as the decoder's does, so each row is its stored
// value exactly, and each segment's sum is kept in the two words of an
// Int128: the walk is branch-free per row and cannot overflow.
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
	cur := b.First
	if cuts[0] == 0 {
		sums[0] = sums[0].AddInt64(cur)
	}
	delta := b.FirstDelta // order-2 running first difference
	m := b.NumPacked()
	// Row r (r >= 1) is one step of the recurrence and consumes packed
	// field r-1. Order-2 blocks pack n-2 fields for n-1 steps: the last
	// row advances by the accumulated first difference alone, which a
	// zero field expresses.
	row, s := 1, 0
	// Rows before cuts[0] lie in no segment: seek to the last multiple of
	// 8 fields at or before it (whole bytes at every width), its prefix
	// resolved without a walk; the few rows left before the cut are
	// walked into skip.
	if e := (cuts[0] - 1) &^ 7; e > 0 {
		var err error
		if cur, delta, err = pipeline.Prefix(b, e); err != nil {
			return err
		}
		row = e + 1
	}
	var skip encoding.Int128
	order1 := b.Order == ts2diff.Order1
	// 128 fields are whole bytes at every width, so each chunk starts
	// byte-aligned in the packed stream.
	var chunk [128]int64
	for row < to {
		e := row - 1 // fields consumed so far
		steps := min(to-row, len(chunk))
		fields := steps
		if fields > m-e {
			fields = m - e
			chunk[fields] = 0
		}
		off := e * int(b.Width) / 8
		if off > len(b.Packed) {
			return bitio.ErrShortBuffer
		}
		if err := pipeline.DecodeDeltasInto(chunk[:fields], b.Packed[off:], fields, b.Width, b.MinBase); err != nil {
			return err
		}
		// Walk the chunk region by region: rows before cuts[0] only
		// advance the recurrence, every later row lies in exactly one
		// segment (row < to <= cuts[len(sums)]).
		for ds := chunk[:steps]; len(ds) > 0; {
			end, acc := cuts[0], &skip
			if row >= end {
				for cuts[s+1] <= row {
					s++
				}
				end, acc = cuts[s+1], &sums[s]
			}
			n := min(len(ds), end-row)
			sum := *acc
			if order1 {
				for _, d := range ds[:n] {
					cur += d
					sum = sum.AddInt64(cur)
				}
			} else {
				for _, d := range ds[:n] {
					cur += delta
					delta += d
					sum = sum.AddInt64(cur)
				}
			}
			*acc = sum
			ds = ds[n:]
			row += n
		}
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

package fusion

import (
	"errors"
	"math"
	"math/bits"

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

// SumRangeSegments fills sums[i] with Σ values over rows
// [cuts[i], cuts[i+1]) of the flattened Delta-Repeat series, walking the
// runs exactly once. A run spanning several segments contributes one
// closed-form partial (Proposition 3) per overlapped segment; segments
// beyond the series' row count stay partial or zero.
//
// Overflow is checked once per page, not per segment: the walk also
// builds a bound B = |first| + Σ|Δ|·count, checked per run, that every
// value it passes stays within. When rows·B fits int64 so does every
// value, running value and segment sum, and the closed forms, computed
// in wrapping int64, are exact. Otherwise it returns ErrOverflow, which
// callers answer with a decoded, checked fold. (So the walk carries no
// //etsqp:rangecheck: its sums wrap by design, and the bound decides.)
//
//etsqp:hotpath
func SumRangeSegments(first int64, pairs []encoding.DeltaRun, cuts []int, sums []int64) error {
	if err := validateCuts(cuts, len(sums)); err != nil {
		return err
	}
	for i := range sums {
		sums[i] = 0
	}
	if len(sums) == 0 {
		return nil
	}
	// Row 0 holds `first`; run p then covers rows idx+1 .. idx+Count with
	// values cur + jΔ (j = row - idx).
	if cuts[0] == 0 {
		sums[0] = first
	}
	last := cuts[len(cuts)-1]
	bound := encoding.Magnitude(first)
	cur := first
	idx := 0
	s := 0
	for _, p := range pairs {
		runEnd := idx + p.Count
		if idx+1 >= last {
			break
		}
		carry, step := bits.Mul64(encoding.Magnitude(p.Delta), uint64(p.Count))
		bound += step
		if carry != 0 || bound < step || bound > math.MaxInt64 {
			return ErrOverflow
		}
		for s < len(sums) && cuts[s+1] <= idx+1 {
			s++
		}
		for t := s; t < len(sums) && cuts[t] <= runEnd; t++ {
			lo := max(cuts[t], idx+1)
			hi := min(cuts[t+1]-1, runEnd) // inclusive last row of the segment
			if lo > hi {
				continue
			}
			sums[t] += cur*int64(hi-lo+1) + p.Delta*rampWeight(lo-idx, hi-idx)
		}
		cur += p.Delta * int64(p.Count)
		idx = runEnd
	}
	if hi, lo := bits.Mul64(uint64(min(idx+1, last)), bound); hi != 0 || lo > math.MaxInt64 {
		return ErrOverflow
	}
	return nil
}

// rampWeight is Σ_{j=j0..j1} j = (j0+j1)(j1−j0+1)/2 for 0 <= j0 <= j1,
// modulo 2^64: the sum and the width differ in parity, so the even one
// is halved exactly before the wrapping multiply (by shifts, not a
// branch on data). SumRangeSegments uses it only where its page bound
// makes the true product term fit.
//
//etsqp:inline
func rampWeight(j0, j1 int) int64 {
	s, w := uint64(j0)+uint64(j1), uint64(j1-j0)+1
	odd := s & 1 // then w is the even one
	return int64((s >> (odd ^ 1)) * (w >> odd))
}

// SumBlockSegments fills sums[i] with Σ values over rows
// [cuts[i], cuts[i+1]) of a TS2DIFF block, streaming the packed deltas
// once through a fixed-size stack chunk (the SumBlockOrder2 idiom) for
// both orders — one decode pass regardless of how many windows cut the
// block, and a plain range is the one-segment case. Cuts past b.Count
// contribute what exists. The walk starts near cuts[0], not at row 1:
// pipeline.Prefix, the resolution RangeScanner.Reset uses, supplies the
// value there. Rows from the seek point on are added checked.
//
//etsqp:hotpath
//etsqp:rangecheck
func SumBlockSegments(b *ts2diff.Block, cuts []int, sums []int64) error {
	if err := validateCuts(cuts, len(sums)); err != nil {
		return err
	}
	for i := range sums {
		sums[i] = 0
	}
	if len(sums) == 0 {
		return nil
	}
	to := cuts[len(cuts)-1]
	if to > b.Count {
		to = b.Count
	}
	if to <= cuts[0] {
		return nil
	}
	cur := b.First
	if cuts[0] == 0 {
		sums[0] = cur
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
	// resolved without a walk. The prefix wraps like the decode, so a
	// wrapping step there leaves the stored row it reaches exact.
	if e := (cuts[0] - 1) &^ 7; e > 0 {
		var err error
		if cur, delta, err = pipeline.Prefix(b, e); err != nil {
			return err
		}
		row = e + 1
	}
	// 128 fields are whole bytes at every width, so each chunk starts
	// byte-aligned in the packed stream.
	var chunk [128]int64
	for row < to {
		e := row - 1 // fields consumed so far
		steps := to - row
		if steps > len(chunk) {
			steps = len(chunk)
		}
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
			end, summed := cuts[0], false
			if row >= end {
				for cuts[s+1] <= row {
					s++
				}
				end, summed = cuts[s+1], true
			}
			n := len(ds)
			if end-row < n {
				n = end - row
			}
			acc := sums[s]
			for _, d := range ds[:n] {
				okC, okD, okA := true, true, true
				if b.Order == ts2diff.Order1 {
					cur, okC = encoding.AddChecked(cur, d)
				} else {
					cur, okC = encoding.AddChecked(cur, delta)
					delta, okD = encoding.AddChecked(delta, d)
				}
				if summed {
					acc, okA = encoding.AddChecked(acc, cur)
				}
				if !(okC && okD && okA) {
					return ErrOverflow
				}
			}
			sums[s] = acc
			ds = ds[n:]
			row += n
		}
	}
	return nil
}

// Package prune implements Section V: stopping rules that terminate
// decoding early from encoder statistics alone.
//
// A page header stores the packing parameters of its Delta stream. On an
// order-1 page those bound every future delta —
//
//	D_m >= minBase,   D_M <= minBase + 2^w - 1
//
// Given the last decoded element and a range filter, Proposition 5
// decides whether any remaining element can still satisfy the filter; if
// not, the rest of the page is skipped. The same reach bounds every row's
// magnitude, which is what lets a one-pass sum skip per-value overflow
// checks. Proposition 4's time rules need no bounds: timestamps are
// sorted, so a scan stops at the first one past the range, and a
// constant interval maps the range to rows by arithmetic (the engine's
// row clock).
package prune

import (
	"math"
	"math/bits"

	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/obs"
	"etsqp/internal/storage"
)

// Bounds carries the per-step bounds derived from encoder statistics.
type Bounds struct {
	Dm int64 // lower bound of every delta (minBase)
	DM int64 // upper bound of every delta (minBase + 2^w - 1)

	// unbounded marks a page whose header bounds none of its values: no
	// reach holds and no stop rule fires, whatever Dm and DM read.
	unbounded bool
}

// BoundsFromBlock derives delta bounds from a TS2DIFF block header. It is
// the one place that decides whether a header bounds its values: only an
// order-1 block of width below 63 does. An order-2 header bounds second
// differences, not the steps between values; at widths 63 and 64, as
// whenever minBase + 2^w - 1 passes MaxInt64, a decoded delta can wrap
// out of [D_m, D_M].
func BoundsFromBlock(b *ts2diff.Block) Bounds {
	dm, dM := b.DeltaBounds()
	if b.Order != ts2diff.Order1 || b.Width >= 63 || uint64(dM-dm) != 1<<b.Width-1 {
		return Bounds{unbounded: true}
	}
	return Bounds{Dm: dm, DM: dM}
}

// StopValueLow implements Proposition 5(1): with a[k] < c1 and n-k-1
// remaining steps, the remaining values can never reach c1 when even
// maximal deltas fall short: a[k] + (n-k-1)·max(D_M, 0) < c1.
func (b Bounds) StopValueLow(ak int64, k, n int, c1 int64) bool {
	if n-k-1 <= 0 {
		return true // nothing left to decode
	}
	if ak >= c1 {
		return false
	}
	_, hi, ok := b.Reach(ak, uint64(n-k-1))
	return ok && hi < c1
}

// StopValueHigh implements Proposition 5(2): with a[k] > c2, the lower
// bounds a[k] + j·D_m stay above c2 for every remaining j when
// a[k] + (n-k-1)·min(D_m, 0) > c2.
func (b Bounds) StopValueHigh(ak int64, k, n int, c2 int64) bool {
	if n-k-1 <= 0 {
		return true
	}
	if ak <= c2 {
		return false
	}
	lo, _, ok := b.Reach(ak, uint64(n-k-1))
	return ok && lo > c2
}

// Reach bounds every value steps or fewer deltas after ak: each lies in
// [ak + steps·min(D_m, 0), ak + steps·max(D_M, 0)]. Values are rebuilt
// in wrapping arithmetic, so the interval holds only when both ends fit
// int64 — then no prefix sum can wrap — and ok is false otherwise: a
// wrapping walk can land anywhere, so no stop rule may fire. ok is false
// on an unbounded page too, even at zero steps.
func (b Bounds) Reach(ak int64, steps uint64) (lo, hi int64, ok bool) {
	upHi, up := bits.Mul64(uint64(max(b.DM, 0)), steps)
	downHi, down := bits.Mul64(-uint64(min(b.Dm, 0)), steps)
	// Room above and below ak, as exact unsigned distances.
	roomUp, roomDown := uint64(math.MaxInt64)-uint64(ak), uint64(ak)+1<<63
	if b.unbounded || upHi != 0 || downHi != 0 || up > roomUp || down > roomDown {
		return 0, 0, false
	}
	return int64(uint64(ak) - down), int64(uint64(ak) + up), true
}

// StopValue combines both directions for a range filter c1 < A < c2. It
// never fires on an unbounded page.
func (b Bounds) StopValue(ak int64, k, n int, c1, c2 int64) bool {
	if !b.unbounded && (b.StopValueLow(ak, k, n, c1) || b.StopValueHigh(ak, k, n, c2)) {
		if obs.Enabled() {
			obs.PruneStopsValue.Inc()
		}
		return true
	}
	return false
}

// SkipPageByValue reports whether a whole page can be skipped for the
// value range [c1, c2] using its min/max statistics. It counts nothing:
// the engine adds the pages a query skipped once, when the plan runs.
func SkipPageByValue(h storage.PageHeader, c1, c2 int64) bool {
	return skipByValue(&h, c1, c2)
}

// skipByValue is SkipPageByValue's rule on a header read in place.
//
//etsqp:inline
func skipByValue(h *storage.PageHeader, c1, c2 int64) bool {
	return h.MaxValue < c1 || h.MinValue > c2
}

// SkipPagesByValue applies SkipPageByValue's rule to every page's value
// header in place, reading only its min/max and, for a skipped page,
// its row count: it returns the pages kept, how many were skipped and
// their rows. pages is never written; while nothing is skipped the
// result is pages itself, so a filter that prunes nothing allocates
// nothing, and the survivors are copied out once, at their exact count.
func SkipPagesByValue(pages []storage.PagePair, c1, c2 int64) (kept []storage.PagePair, skipped int, rows int64) {
	for i := range pages {
		if h := &pages[i].Value.Header; skipByValue(h, c1, c2) {
			skipped++
			rows += int64(h.Count)
		}
	}
	if skipped == 0 {
		return pages, 0, 0
	}
	kept = make([]storage.PagePair, 0, len(pages)-skipped)
	for i := range pages {
		if !skipByValue(&pages[i].Value.Header, c1, c2) {
			kept = append(kept, pages[i])
		}
	}
	return kept, skipped, rows
}

// AllValuesInRange is the dual of SkipPageByValue: the header statistics
// prove every value of the page satisfies c1 <= v <= c2, so a range
// filter is vacuous over it. The engine uses this to keep the fused
// no-materialization aggregation path on for pages a value predicate
// cannot actually reject.
func AllValuesInRange(h storage.PageHeader, c1, c2 int64) bool {
	return h.MinValue >= c1 && h.MaxValue <= c2
}

package pipeline

import (
	"fmt"

	"etsqp/internal/encoding/ts2diff"
)

// DecodeRange decodes rows [from, to) of a TS2DIFF block; the result
// slice is its only allocation.
func DecodeRange(b *ts2diff.Block, from, to int) ([]int64, error) {
	if from < 0 || to > b.Count || from > to {
		return nil, fmt.Errorf("pipeline: range [%d,%d) out of block [0,%d)", from, to, b.Count)
	}
	if from == to {
		return nil, nil
	}
	out := make([]int64, to-from)
	if err := decodeRows(out, b, from); err != nil {
		return nil, err
	}
	return out, nil
}

// ConstantInterval reports whether an order-2 time block encodes a
// perfectly regular series, and if so its interval: width 0 means every
// second-order delta equals MinBase; with MinBase == 0 the interval is
// constant FirstDelta. Pruning and window planning use this to avoid
// decoding timestamps entirely (Proposition 4's constant-D special case).
func ConstantInterval(b *ts2diff.Block) (interval int64, ok bool) {
	if b.Order != ts2diff.Order2 || b.Width != 0 || b.MinBase != 0 {
		return 0, false
	}
	return b.FirstDelta, true
}

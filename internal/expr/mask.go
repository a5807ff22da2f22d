// Package expr implements the time-series expression operators of
// Definitions 1-2: range filters producing mask vectors, masked
// aggregation, natural join, concatenation (time-ordered merge) and
// sliding-window enumeration. These are the pipeline nodes Algorithm 2
// appends after the decoders.
package expr

import "math/bits"

// Mask marks valid tuples as a bitset — the in-memory form of the
// -1/0 lane masks the paper's filters produce in SIMD registers.
type Mask struct {
	bits []uint64
	n    int
}

// NewMask returns an all-zero mask over n rows.
func NewMask(n int) *Mask {
	return &Mask{bits: make([]uint64, (n+63)/64), n: n}
}

// Len reports the number of rows covered.
func (m *Mask) Len() int { return m.n }

// Set marks row i valid.
func (m *Mask) Set(i int) { m.bits[i>>6] |= 1 << uint(i&63) }

// Get reports whether row i is valid.
func (m *Mask) Get(i int) bool { return m.bits[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of valid rows (popcount per word).
func (m *Mask) Count() int {
	c := 0
	for _, w := range m.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the first valid row >= i, or -1.
func (m *Mask) NextSet(i int) int {
	if i >= m.n {
		return -1
	}
	w := i >> 6
	cur := m.bits[w] >> uint(i&63) << uint(i&63)
	for {
		if cur != 0 {
			idx := w<<6 + bits.TrailingZeros64(cur)
			if idx >= m.n {
				return -1
			}
			return idx
		}
		w++
		if w >= len(m.bits) {
			return -1
		}
		cur = m.bits[w]
	}
}

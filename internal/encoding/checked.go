package encoding

// AddChecked adds two int64 detecting overflow: the Section VI-C
// primitive both the fused sums and the engine's scalar accumulators
// fold through.
//
//etsqp:checked add
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:inline
func AddChecked(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return s, false
	}
	return s, true
}

// Magnitude is |v| as a uint64, exact for MinInt64: |MinInt64| = 2^63
// fits.
//
//etsqp:hotpath
//etsqp:inline
func Magnitude(v int64) uint64 {
	s := v >> 63
	return uint64((v ^ s) - s)
}

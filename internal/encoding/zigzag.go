package encoding

// ZigZag maps signed integers to unsigned so that small-magnitude values
// (positive or negative) become small codes: 0→0, -1→1, 1→2, -2→3, …
// Sprintz uses ZigZag before bit-packing so negative deltas do not force
// full-width codes.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:inline
func ZigZag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// UnZigZag inverts ZigZag.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:inline
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// UnZigZagSlice decodes every element.
func UnZigZagSlice(us []uint64) []int64 {
	out := make([]int64, len(us))
	for i, u := range us {
		out[i] = UnZigZag(u)
	}
	return out
}

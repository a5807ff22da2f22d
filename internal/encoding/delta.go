package encoding

// DeltaDecode inverts first-order deltas d[i] = v[i+1] - v[i]:
// v[0] = first, v[i] = v[i-1] + d[i-1].
func DeltaDecode(first int64, deltas []int64) []int64 {
	out := make([]int64, len(deltas)+1)
	out[0] = first
	for i, d := range deltas {
		out[i+1] = out[i] + d
	}
	return out
}

// Delta2Decode inverts second-order deltas (the ±² row of Table I, used
// by TS2DIFF for timestamps) for n >= 2 original values: the first
// value, the first delta, and the len(v)-2 differences of consecutive
// deltas.
func Delta2Decode(first, firstDelta int64, dd []int64) []int64 {
	deltas := DeltaDecode(firstDelta, dd)
	return DeltaDecode(first, deltas)
}

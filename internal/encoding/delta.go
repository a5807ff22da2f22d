package encoding

// DeltaEncode computes first-order deltas: d[i] = v[i+1] - v[i].
// It returns the first value (kept in the header by IoT encoders) and the
// len(v)-1 differences. An empty input yields (0, nil).
func DeltaEncode(vals []int64) (first int64, deltas []int64) {
	if len(vals) == 0 {
		return 0, nil
	}
	first = vals[0]
	deltas = make([]int64, len(vals)-1)
	for i := 1; i < len(vals); i++ {
		deltas[i-1] = vals[i] - vals[i-1]
	}
	return first, deltas
}

// DeltaDecode inverts DeltaEncode: v[0] = first, v[i] = v[i-1] + d[i-1].
func DeltaDecode(first int64, deltas []int64) []int64 {
	out := make([]int64, len(deltas)+1)
	out[0] = first
	for i, d := range deltas {
		out[i+1] = out[i] + d
	}
	return out
}

// Delta2Encode computes second-order deltas (the ±² row of Table I, used
// by TS2DIFF for timestamps): it delta-encodes the delta sequence.
// It returns the first value, the first delta, and len(v)-2 second-order
// differences.
func Delta2Encode(vals []int64) (first, firstDelta int64, dd []int64) {
	if len(vals) < 2 {
		if len(vals) == 1 {
			return vals[0], 0, nil
		}
		return 0, 0, nil
	}
	first = vals[0]
	_, deltas := DeltaEncode(vals)
	firstDelta = deltas[0]
	_, dd = DeltaEncode(deltas)
	return first, firstDelta, dd
}

// Delta2Decode inverts Delta2Encode for n >= 2 original values.
func Delta2Decode(first, firstDelta int64, dd []int64) []int64 {
	deltas := DeltaDecode(firstDelta, dd)
	return DeltaDecode(first, deltas)
}

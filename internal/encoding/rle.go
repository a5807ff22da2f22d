package encoding

// Run is one (value, repeat count) pair of a run-length encoding.
type Run struct {
	Value int64
	Count int
}

// RLEEncode compresses consecutive repeated values into runs.
func RLEEncode(vals []int64) []Run {
	if len(vals) == 0 {
		return nil
	}
	runs := make([]Run, 0, 8)
	cur := Run{Value: vals[0], Count: 1}
	for _, v := range vals[1:] {
		if v == cur.Value {
			cur.Count++
			continue
		}
		runs = append(runs, cur)
		cur = Run{Value: v, Count: 1}
	}
	return append(runs, cur)
}

// DeltaRun is one (delta, run length) pair of the Delta-Repeat combined
// representation that Section IV fuses aggregations over: the series
// advances by Delta at each of Count consecutive steps.
type DeltaRun struct {
	Delta int64
	Count int
}

// DeltaRLEDecode expands Delta-Repeat pairs back to values: the Repeat
// flatten of Figure 2. The run counts must be non-negative.
func DeltaRLEDecode(first int64, pairs []DeltaRun) []int64 {
	n := 1
	for _, p := range pairs {
		n += p.Count
	}
	out := make([]int64, n)
	DeltaRLEDecodeInto(out, first, pairs)
	return out
}

// DeltaRLEDecodeInto writes the flattened sequence into dst, which must
// have room for 1 + sum(Count) values, and returns the number of values
// written. It is the one Delta-Repeat expansion loop: each run is
// written through a hoisted re-slice, so the inner stores carry no
// bounds checks (one slice check per run instead of one index check per
// value), and a pure repeat is a broadcast.
//
//etsqp:hotpath
func DeltaRLEDecodeInto(dst []int64, first int64, pairs []DeltaRun) int {
	dst[0] = first
	i := 1
	cur := first
	for _, p := range pairs {
		run := dst[i : i+p.Count]
		if p.Delta == 0 {
			for k := range run {
				run[k] = cur
			}
		} else {
			for k := range run {
				cur += p.Delta
				run[k] = cur
			}
		}
		i += p.Count
	}
	return i
}

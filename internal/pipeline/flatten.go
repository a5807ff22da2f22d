package pipeline

import "etsqp/internal/encoding"

// FlattenInto writes the flattened Delta-Repeat sequence into dst and
// returns the number of values written. It is probe-only: the benchmark
// times the Repeat flatten through it, and it forwards to
// encoding.DeltaRLEDecodeInto, the expansion every RLBE read runs.
func FlattenInto(dst []int64, first int64, pairs []encoding.DeltaRun) int {
	return encoding.DeltaRLEDecodeInto(dst, first, pairs)
}

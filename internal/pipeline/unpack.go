package pipeline

import (
	"fmt"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding/ts2diff"
)

// DecodeBlockInto decodes into a caller-provided slice of length b.Count.
func DecodeBlockInto(out []int64, b *ts2diff.Block) error {
	if len(out) != b.Count {
		return fmt.Errorf("pipeline: dst len %d, want %d", len(out), b.Count)
	}
	return decodeRows(out, b, 0)
}

// SumPacked returns the sum of the first m packed fields (without
// minBase), wrapping mod 2^64 like the decode it stands in for. Slices
// use it to resolve their prefix dependency without producing rows.
//
//etsqp:bounds width [0, 64]
//etsqp:hotpath
func SumPacked(packed []byte, m int, width uint) (uint64, error) {
	if width == 0 {
		return 0, nil
	}
	r := bitio.NewReader(packed)
	// 256 fields are whole bytes and whole 64-field groups at every
	// width, so every chunk but the last is unpacked by kernels alone.
	var fields [256]int64
	var total uint64
	for m > 0 {
		n := min(m, len(fields))
		if err := r.ReadFields(fields[:n], width); err != nil {
			return 0, err
		}
		for _, f := range fields[:n] {
			total += uint64(f)
		}
		m -= n
	}
	return total, nil
}

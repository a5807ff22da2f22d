package rlbe

import (
	"errors"
	"testing"

	"etsqp/internal/fusion"
)

// FuzzUnmarshal drives arbitrary bytes through RLBE block parsing,
// pair recovery and decoding: corruption must surface as errors, never
// panics or run-length blowups, and values that do decode must survive
// a fresh Encode→Decode round trip exactly. Pairs, the one run-total
// check, must agree with Decode on every block, and the fused sum over
// its pairs must equal the decoded sum or report overflow.
func FuzzUnmarshal(f *testing.F) {
	if good, err := Encode([]int64{5, 10, 15, 20, 20, 20, 7}); err == nil {
		f.Add(good.Marshal())
	}
	if run, err := Encode(make([]int64, 64)); err == nil {
		f.Add(run.Marshal())
	}
	f.Add([]byte{blockMagic, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 1, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Unmarshal(data)
		if err != nil {
			return
		}
		if b.Count > 1<<20 || b.NumRuns > 1<<20 {
			return // decoding huge claimed counts is valid but slow
		}
		pairs, perr := b.Pairs()
		vals, err := b.Decode()
		if (perr == nil) != (err == nil) {
			t.Fatalf("Pairs error %v, Decode error %v", perr, err)
		}
		if err != nil {
			return
		}
		if len(vals) != b.Count {
			t.Fatalf("decoded %d values for count %d", len(vals), b.Count)
		}
		rows := min(b.Count, 1)
		for _, p := range pairs {
			rows += p.Count
		}
		if rows != b.Count {
			t.Fatalf("runs cover %d rows for count %d", rows, b.Count)
		}
		if b.Count == 0 {
			return
		}
		var sum int64
		for _, v := range vals {
			sum += v
		}
		if s, err := fusion.Sum(b.First, pairs); err == nil && s != sum || err != nil && !errors.Is(err, fusion.ErrOverflow) {
			t.Fatalf("fusion.Sum = %d, %v; decoded sum %d", s, err, sum)
		}
		again, err := Encode(vals)
		if err != nil {
			t.Fatalf("re-encoding decoded values: %v", err)
		}
		back, err := again.Decode()
		if err != nil {
			t.Fatalf("decoding re-encoded block: %v", err)
		}
		if len(back) != len(vals) {
			t.Fatalf("round trip %d values, want %d", len(back), len(vals))
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("value %d: got %d want %d", i, back[i], vals[i])
			}
		}
	})
}

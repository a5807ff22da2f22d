// FuzzFlatten drives the Repeat flatten path with arbitrary Delta-Repeat
// pages and cross-checks every route that materializes or aggregates
// them: encoding.DeltaRLEDecode and its into-a-buffer form against a
// value-at-a-time loop, and the fusion closed forms (whole page and
// range segments) against scalar sums of that loop's values.
// FuzzRangeScanner pins the TS2DIFF cursor and its three entry points to
// the scalar oracle, and TestTruncatedPayload every payload reader of
// both packages to the oracle's error. External test package: fusion
// imports pipeline, so the cross-checks cannot live in-package.
package pipeline_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/fusion"
	"etsqp/internal/pipeline"
)

// parseFlattenInput maps fuzz bytes onto a Delta-Repeat page: 4 bytes of
// signed seed value, then one run per 3-byte group (signed delta byte
// scaled by a shift, count byte + 1). Totals are capped so a hostile
// input cannot allocate unbounded output.
func parseFlattenInput(data []byte) (int64, []encoding.DeltaRun) {
	var first int64
	if len(data) >= 4 {
		first = int64(int32(binary.LittleEndian.Uint32(data[:4])))
		data = data[4:]
	}
	var pairs []encoding.DeltaRun
	total := 1
	for len(data) >= 3 && len(pairs) < 256 {
		delta := int64(int8(data[0])) << (uint(data[1]) & 7)
		count := int(data[2]) + 1
		if total+count > 1<<16 {
			break
		}
		total += count
		pairs = append(pairs, encoding.DeltaRun{Delta: delta, Count: count})
		data = data[3:]
	}
	return first, pairs
}

func scalarSum(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	return s
}

func FuzzFlatten(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		first, pairs := parseFlattenInput(data)
		// The oracle: one value per step, appended.
		want := []int64{first}
		for _, p := range pairs {
			for k := 0; k < p.Count; k++ {
				want = append(want, want[len(want)-1]+p.Delta)
			}
		}
		n := len(want)
		out := encoding.DeltaRLEDecode(first, pairs)
		if len(out) != n {
			t.Fatalf("DeltaRLEDecode returned %d values, want %d", len(out), n)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("DeltaRLEDecode[%d] = %d, want %d", i, out[i], want[i])
			}
		}
		// The into-a-buffer form writes exactly its 1 + Σcount values.
		dst := make([]int64, n+1)
		dst[n] = 42
		if w := encoding.DeltaRLEDecodeInto(dst, first, pairs); w != n || dst[n] != 42 {
			t.Fatalf("DeltaRLEDecodeInto wrote %d values (sentinel %d), want %d", w, dst[n], n)
		}
		for _, w := range [][2]int{{0, n}, {n / 3, 2*n/3 + 1}, {n - 1, n}} {
			from, to := w[0], min(w[1], n)
			var sum [1]int64
			if err := fusion.SumRangeSegments(first, pairs, []int{from, to}, sum[:]); err == nil && sum[0] != scalarSum(want[from:to]) {
				t.Fatalf("fusion.SumRangeSegments(%d,%d) = %d, scalar %d", from, to, sum[0], scalarSum(want[from:to]))
			}
		}
		if s, err := fusion.Sum(first, pairs); err == nil && s != scalarSum(want) {
			t.Fatalf("fusion.Sum = %d, scalar %d", s, scalarSum(want))
		}
	})
}

// parseScannerInput maps fuzz bytes onto a TS2DIFF page and a scan of it.
// Header: order bit + first-value selector (int64 extremes included),
// delta width 0..64, then little-endian uint16 from, to and chunk size.
// Each following 3-byte group appends up to 256 rows whose deltas are a
// hash of the group masked to the width, so a short input still spans
// several 1024-row chunks at every width. Rows are capped at 1<<13.
func parseScannerInput(data []byte) (vals []int64, order ts2diff.Order, from, to, chunk int) {
	var hdr [8]byte
	copy(hdr[:], data)
	if len(data) > len(hdr) {
		data = data[len(hdr):]
	} else {
		data = nil
	}
	order = ts2diff.Order1 + ts2diff.Order(hdr[0]&1)
	cur := [...]int64{0, math.MaxInt64, math.MinInt64, -1}[hdr[0]>>1&3]
	width := uint(hdr[1]) % 65
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	vals = []int64{cur}
	for ; len(data) >= 3 && len(vals) < 1<<13; data = data[3:] {
		seed := uint64(data[0])<<8 | uint64(data[1])
		for k := 0; k <= int(data[2]); k++ {
			seed = (seed + uint64(k) + 1) * 0x9E3779B97F4A7C15
			cur += int64(seed >> 7 & mask) // wraps by design
			vals = append(vals, cur)
		}
	}
	from = int(binary.LittleEndian.Uint16(hdr[2:])) % (len(vals) + 1)
	to = from + int(binary.LittleEndian.Uint16(hdr[4:]))%(len(vals)-from+1)
	chunk = int(binary.LittleEndian.Uint16(hdr[6:]))%1500 + 1
	return vals, order, from, to, chunk
}

func FuzzRangeScanner(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 12, 8, 0, 255, 255, 0, 4, 7, 7, 255, 9, 9, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, order, from, to, chunk := parseScannerInput(data)
		b, err := ts2diff.Encode(vals, order)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := b.Decode()
		if err != nil {
			t.Fatal(err)
		}
		want := oracle[from:to]
		equal := func(route string, got []int64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s [%d,%d): %d rows, want %d", route, from, to, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s [%d,%d) order %d width %d: row %d = %d, oracle %d",
						route, from, to, b.Order, b.Width, from+i, got[i], want[i])
				}
			}
		}

		s, err := pipeline.NewRangeScanner(b, from)
		if err != nil {
			t.Fatal(err)
		}
		scanned := make([]int64, 0, to-from)
		buf := make([]int64, chunk)
		for s.Row() < to {
			n := to - s.Row()
			if n > chunk {
				n = chunk
			}
			k, err := s.Next(buf[:n])
			if err != nil {
				t.Fatal(err)
			}
			if k != n {
				t.Fatalf("Next(%d) at row %d of %d produced %d rows", n, s.Row(), b.Count, k)
			}
			scanned = append(scanned, buf[:k]...)
		}
		equal("RangeScanner", scanned)

		// A second scan, from a reused scanner, in ragged chunks: runs on
		// both sides of one and two 64-field groups, so that whatever bit
		// the start row lands on, the bulk reader's head, whole groups,
		// partial group and ReadBits tail all occur and hand over
		// mid-page.
		var again pipeline.RangeScanner
		if err := again.Reset(b, from); err != nil {
			t.Fatal(err)
		}
		scanned = scanned[:0]
		ragged := make([]int64, max(chunk, 129))
		for i := 0; again.Row() < to; i++ {
			n := min(to-again.Row(), [...]int{1, 63, 64, 65, 7, 127, 128, 129, chunk}[i%9])
			k, err := again.Next(ragged[:n])
			if err != nil || k != n {
				t.Fatalf("Next(%d) at row %d of %d produced %d rows, %v", n, again.Row(), b.Count, k, err)
			}
			scanned = append(scanned, ragged[:k]...)
		}
		equal("RangeScanner.Reset, ragged chunks", scanned)

		ranged, err := pipeline.DecodeRange(b, from, to)
		if err != nil {
			t.Fatal(err)
		}
		equal("DecodeRange", ranged)

		whole := make([]int64, b.Count)
		if err := pipeline.DecodeBlockInto(whole, b); err != nil {
			t.Fatal(err)
		}
		equal("DecodeBlockInto", whole[from:to])
	})
}

// errOr names a nil error in a failure message.
func errOr(err error) error {
	if err == nil {
		return errors.New("no error")
	}
	return err
}

// everyShape scans a rows-row block to its end with step, from start rows
// on every bit offset a field can have and in chunk lengths around one
// and two 64-field groups: the truncation is met by the bulk reader's
// head, its groups, its partial group or its tail, or by the prefix sum
// under Reset — and each must say ErrShortBuffer when wantShort, and no
// error on the intact block. It returns the oracle's error when every
// shape agrees.
func everyShape(b *ts2diff.Block, rows int, wantShort bool, step func(*pipeline.RangeScanner, []int64) error, oracle error) error {
	var s pipeline.RangeScanner
	chunk := make([]int64, 1024)
	for start := 0; start < 67; start++ {
		if start == 18 {
			start = 62 // 0..17 is two alignment periods of any width
		}
		for _, n := range []int{1, 63, 64, 65, 130, 1024} {
			err := s.Reset(b, start)
			for err == nil && s.Row() < rows {
				err = step(&s, chunk[:n])
			}
			if errors.Is(err, bitio.ErrShortBuffer) != wantShort || (!wantShort && err != nil) {
				return fmt.Errorf("start %d, chunks of %d: %w", start, n, errOr(err))
			}
		}
	}
	return oracle
}

// TestTruncatedPayload cuts the last two bytes off a block's payload:
// every route that reads the payload to its end must then fail with
// bitio.ErrShortBuffer — and succeed on the intact block — exactly as
// the scalar oracle b.Decode() does, at every width and both orders.
func TestTruncatedPayload(t *testing.T) {
	const rows = 3000
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		for _, w := range []uint{4, 12, 25, 26, 30, 32, 40} {
			// Small deltas keep every sum far from overflow whatever
			// the width the fields are packed at.
			intact := &ts2diff.Block{Order: order, Count: rows, First: 5, FirstDelta: 1, MinBase: -1, Width: w}
			m := intact.NumPacked()
			fields := make([]uint64, m)
			for i := range fields {
				fields[i] = uint64(i % 3)
			}
			intact.Packed = encoding.Pack(fields, w)
			short := *intact
			short.Packed = intact.Packed[:len(intact.Packed)-2]

			for _, b := range []*ts2diff.Block{intact, &short} {
				_, oracle := b.Decode()
				wantShort := errors.Is(oracle, bitio.ErrShortBuffer)
				if wantShort != (b == &short) || (!wantShort && oracle != nil) {
					t.Fatalf("order %d width %d: oracle error %v", order, w, oracle)
				}
				routes := []struct {
					name string
					run  func() error
				}{
					{"DecodeBlockInto", func() error { return pipeline.DecodeBlockInto(make([]int64, rows), b) }},
					{"DecodeRange", func() error {
						_, err := pipeline.DecodeRange(b, 1000, rows)
						return err
					}},
					{"RangeScanner", func() error {
						s, err := pipeline.NewRangeScanner(b, 0)
						for chunk := make([]int64, 1024); err == nil && s.Row() < rows; {
							_, err = s.Next(chunk)
						}
						return err
					}},
					{"RangeScanner, every start and chunk shape", func() error {
						return everyShape(b, rows, wantShort, func(s *pipeline.RangeScanner, chunk []int64) error {
							_, err := s.Next(chunk)
							return err
						}, oracle)
					}},
					{"RangeScanner.SumNext, every start and chunk shape", func() error {
						if order != ts2diff.Order1 {
							return oracle // SumNext takes order-1 blocks only
						}
						return everyShape(b, rows, wantShort, func(s *pipeline.RangeScanner, chunk []int64) error {
							_, _, err := s.SumNext(chunk)
							return err
						}, oracle)
					}},
					{"RangeScanner, start inside the cut", func() error {
						var s pipeline.RangeScanner
						err := s.Reset(b, rows-1)
						if err == nil {
							_, err = s.Next(make([]int64, 1))
						}
						return err
					}},
					{"SumPacked", func() error {
						_, err := pipeline.SumPacked(b.Packed, m, w)
						return err
					}},
					{"fusion.SumBlock", func() error {
						_, err := fusion.SumBlock(b)
						return err
					}},
					{"fusion.SumBlockSegments", func() error {
						return fusion.SumBlockSegments(b, []int{0, rows / 2, rows}, make([]int64, 2))
					}},
				}
				for _, r := range routes {
					err := r.run()
					if errors.Is(err, bitio.ErrShortBuffer) != wantShort || (!wantShort && err != nil) {
						t.Errorf("%s order %d width %d truncated=%v: error %v, oracle %v",
							r.name, order, w, b == &short, err, oracle)
					}
				}
			}
		}
	}
}

package engine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/rlbe"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/storage"
)

// TestPayloadCountMismatch: a value page whose payload holds another
// number of rows than its header promises, with a valid checksum — or an
// RLBE page whose runs cover another number of rows than its own count —
// is corrupt in every mode and every query shape: an error wrapping
// storage.ErrCorrupt, never an answer over the rows the payload happens
// to hold, and never a panic. So is a payload with one bit flipped under
// its stale checksum, wherever the flip lies: with the page whole or cut
// into slices, whose siblings read the bytes their first reader
// verifies, at any worker count.
func TestPayloadCountMismatch(t *testing.T) {
	const rows, off = 4096, 96
	ts, vals := make([]int64, rows), make([]int64, rows+off)
	for i := range vals {
		vals[i] = int64(i % 50)
	}
	for i := range ts {
		ts[i] = 1_000_000 + int64(i)*100
	}
	encode := func(codec string, n int) []byte {
		c, err := encoding.Lookup(codec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.Encode(vals[:n])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// The block claims the header's rows; its runs cover another number.
	// Without the run-total check the fused SUM adds up whatever the runs
	// cover.
	runs := func(n int) []byte {
		blk, err := rlbe.Encode(vals[:n])
		if err != nil {
			t.Fatal(err)
		}
		blk.Count = rows
		return blk.Marshal()
	}
	type payloadCase struct {
		name, codec string
		payload     []byte
		checksum    uint32
	}
	valid := func(name, codec string, payload []byte) payloadCase {
		return payloadCase{name, codec, payload, crc32.ChecksumIEEE(payload)}
	}
	cases := []payloadCase{
		valid("rlbe runs short of the block count", "rlbe", runs(rows-off)),
		valid("rlbe runs past the block count", "rlbe", runs(rows+off)),
	}
	for _, codec := range []string{"ts2diff", "rlbe"} {
		cases = append(cases,
			valid(codec+" payload 96 rows short", codec, encode(codec, rows-off)),
			valid(codec+" payload 96 rows long", codec, encode(codec, rows+off)))
	}
	// A bit flipped in the byte holding row 680's, 2040's or 3400's
	// packed field: one inside each of the three slices ForceSlices=3
	// cuts the page into.
	for _, row := range []int{680, 2040, 3400} {
		payload := encode("ts2diff", rows)
		sum := crc32.ChecksumIEEE(payload)
		var blk ts2diff.Block
		if err := blk.UnmarshalBinary(payload); err != nil {
			t.Fatal(err)
		}
		blk.Packed[(row-1)*int(blk.Width)/8] ^= 1 // row r reads field r-1
		cases = append(cases, payloadCase{fmt.Sprintf("ts2diff row %d bit flipped", row), "ts2diff", payload, sum})
	}
	queries := []string{
		"SELECT SUM(A) FROM ts",
		"SELECT MAX(A) FROM ts",
		"SELECT SUM(A) FROM ts WHERE A > 10",
		fmt.Sprintf("SELECT COUNT(A) FROM ts WHERE TIME >= %d AND TIME <= %d", ts[100], ts[3000]),
		"SELECT SUM(A) FROM ts GROUP BY TIME(50000)",
		"SELECT * FROM ts WHERE A > 10",
	}
	for _, c := range cases {
		pairs, err := storage.EncodePages(ts, vals[:rows], storage.Options{PageSize: rows, ValueCodec: c.codec})
		if err != nil {
			t.Fatal(err)
		}
		v := pairs[0].Value
		v.Data, v.Header.Checksum = c.payload, c.checksum
		st := storage.NewStore()
		if err := st.AppendPages("ts", pairs); err != nil {
			t.Fatal(err)
		}
		for _, mode := range allModes {
			forEachCut(func(slices, workers int) {
				e := New(st, mode)
				e.Workers, e.ForceSlices = workers, slices
				for _, q := range queries {
					if res, err := e.ExecuteSQL(q); !errors.Is(err, storage.ErrCorrupt) {
						t.Errorf("%s, %v, ForceSlices=%d, %d workers, %s: error %v, result %+v; want storage.ErrCorrupt",
							c.name, mode, slices, workers, q, err, res)
					}
				}
			})
		}
	}
}

// forEachCut calls f with ForceSlices 0 and 3 at 1, 2 and 4 workers:
// whole pages and pages cut into slices, read by one worker or several.
func forEachCut(f func(slices, workers int)) {
	for _, slices := range []int{0, 3} {
		for _, workers := range []int{1, 2, 4} {
			f(slices, workers)
		}
	}
}

// TestConstantIntervalTimeCorrupt: a corrupt time page whose block still
// parses as a constant interval is corrupt in every mode. The modes that
// map a time range to rows by interval arithmetic (Proposition 4) never
// decode the time page, so without a checksum test they answer over the
// wrong rows: a flipped FirstDelta turns interval 100 into 101.
func TestConstantIntervalTimeCorrupt(t *testing.T) {
	const rows = 8192
	ts, vals := make([]int64, rows), make([]int64, rows)
	for i := range ts {
		ts[i], vals[i] = 1_000_000+int64(i)*100, int64(i%50)
	}
	queries := []string{
		"SELECT COUNT(A) FROM ts WHERE TIME >= 1000000 AND TIME <= 1200000",
		"SELECT COUNT(A) FROM ts WHERE TIME >= 1000000 AND TIME <= 1200000 GROUP BY TIME(50000)",
		"SELECT FIRST(A) FROM ts WHERE TIME >= 1100000 AND TIME <= 1200000",
	}
	for _, mode := range allModes {
		st := storeFor(t, mode, ts, vals, 4096)
		ser, _ := st.Series("ts")
		page := ser.Pages[0].Time
		// Byte 22 of a TS2DIFF payload is the low byte of FirstDelta.
		page.Data[22] ^= 1
		var blk ts2diff.Block
		if err := blk.UnmarshalBinary(page.Data); err != nil || blk.FirstDelta != 101 {
			t.Fatalf("%v: corrupt time page parses as %+v, %v; want FirstDelta 101", mode, blk, err)
		}
		forEachCut(func(slices, workers int) {
			e := New(st, mode)
			e.Workers, e.ForceSlices = workers, slices
			for _, q := range queries {
				if res, err := e.ExecuteSQL(q); !errors.Is(err, storage.ErrCorrupt) {
					t.Errorf("%v, ForceSlices=%d, %d workers, %s: error %v, result %+v; want storage.ErrCorrupt",
						mode, slices, workers, q, err, res)
				}
			}
		})
	}
}

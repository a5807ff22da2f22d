package pipeline

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
)

// seriesWithWidth builds n values whose TS2DIFF packing width is exactly w.
func seriesWithWidth(n int, w uint, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	cur := int64(1000)
	maxDelta := int64(1)<<w - 1
	for i := range vals {
		vals[i] = cur
		var d int64
		if w == 0 {
			d = 7
		} else {
			d = rng.Int63n(maxDelta + 1)
			if i == 1 {
				d = maxDelta // force the full width at least once
			}
		}
		cur += d
	}
	return vals
}

func TestDecodeBlockMatchesScalarAllWidths(t *testing.T) {
	for w := uint(0); w <= 32; w++ {
		vals := seriesWithWidth(1000, w, int64(w)+1)
		b, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		if w > 0 && b.Width != w {
			t.Fatalf("width %d: block width %d", w, b.Width)
		}
		want, err := b.Decode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRange(b, 0, b.Count)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("width %d: first mismatch at %d: got %d want %d", w, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDecodeBlockOrder2(t *testing.T) {
	// Near-regular timestamps: order-2 width stays small.
	ts := make([]int64, 5000)
	rng := rand.New(rand.NewSource(7))
	cur := int64(1_700_000_000_000)
	interval := int64(1000)
	for i := range ts {
		ts[i] = cur
		interval += rng.Int63n(5) - 2
		cur += interval
	}
	b, err := ts2diff.Encode(ts, ts2diff.Order2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := b.Decode()
	got, err := DecodeRange(b, 0, b.Count)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("order-2 vector decode mismatch")
	}
}

func TestDecodeBlockSmallCounts(t *testing.T) {
	for n := 0; n <= 40; n++ {
		vals := seriesWithWidth(n, 10, int64(n))
		b, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRange(b, 0, b.Count)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n == 0 {
			if len(got) != 0 {
				t.Fatalf("n=0 got %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("n=%d mismatch", n)
		}
	}
}

func TestDecodeBlockQuick(t *testing.T) {
	f := func(raw []int64) bool {
		for i := range raw {
			raw[i] %= 1 << 40
		}
		b, err := ts2diff.Encode(raw, ts2diff.Order1)
		if err != nil {
			return false
		}
		got, err := DecodeRange(b, 0, b.Count)
		if err != nil {
			return false
		}
		if len(raw) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBlockIntoValidation(t *testing.T) {
	b, _ := ts2diff.Encode([]int64{1, 2, 3}, ts2diff.Order1)
	if err := DecodeBlockInto(make([]int64, 2), b); err == nil {
		t.Fatal("wrong dst length must fail")
	}
	bad := *b
	bad.Order = 9
	if err := DecodeBlockInto(make([]int64, 3), &bad); err == nil {
		t.Fatal("bad order must fail")
	}
}

func TestSumPacked(t *testing.T) {
	for _, w := range []uint{1, 3, 10, 20, 25, 30} {
		vals := seriesWithWidth(700, w, int64(w)*3)
		b, _ := ts2diff.Encode(vals, ts2diff.Order1)
		got, err := SumPacked(b.Packed, b.NumPacked(), b.Width)
		if err != nil {
			t.Fatal(err)
		}
		packed, _ := encoding.Unpack(b.Packed, b.NumPacked(), b.Width)
		var want uint64
		for _, p := range packed {
			want += p
		}
		if got != want {
			t.Fatalf("w=%d: sum %d want %d", w, got, want)
		}
	}
	if s, err := SumPacked(nil, 0, 10); err != nil || s != 0 {
		t.Fatalf("empty sum: %d/%v", s, err)
	}
}

func TestChooseNv(t *testing.T) {
	// Paper example: 10-bit packing, 32-bit lanes → n_v ≈ 4.
	if got := ChooseNv(10, 32); got != 5 && got != 4 {
		t.Fatalf("ChooseNv(10,32) = %d, want ~4", got)
	}
	// 25-bit example: sqrt(32/25*5.5) ≈ 2.65 → 3.
	if got := ChooseNv(25, 32); got < 2 || got > 4 {
		t.Fatalf("ChooseNv(25,32) = %d, want ~3", got)
	}
	if ChooseNv(0, 32) != 1 {
		t.Fatal("width 0 must use a single vector")
	}
	// Wider inputs need fewer vectors than narrow ones.
	if ChooseNv(1, 32) < ChooseNv(25, 32) {
		t.Fatal("narrow widths should choose more vectors")
	}
	// Overflow clamp: width+log2(8*nv) <= 32 for every width on the
	// narrow path.
	for w := uint(1); w <= 25; w++ {
		nv := ChooseNv(w, 32)
		elems := 8 * nv
		if uint64(elems)*(uint64(1)<<w-1) >= 1<<32 {
			t.Fatalf("width %d: nv %d allows 32-bit overflow", w, nv)
		}
	}
}

func TestPlanTables(t *testing.T) {
	ResetPlanCache()
	p, err := PlanFor(10)
	if err != nil {
		t.Fatal(err)
	}
	if p.wide || p.Nv < 1 || p.BlockElems != 8*p.Nv {
		t.Fatalf("plan: %+v", p)
	}
	if p.BlockBytes != p.BlockElems*10/8 {
		t.Fatalf("BlockBytes = %d", p.BlockBytes)
	}
	// Cached instance is reused.
	if p2, err := PlanFor(10); err != nil || p2 != p {
		t.Fatalf("plan not cached (err %v)", err)
	}
	// Wide plan has no tables.
	pw, err := PlanFor(30)
	if err != nil {
		t.Fatal(err)
	}
	if !pw.wide || pw.gatherIdx != nil {
		t.Fatalf("wide plan: %+v", pw)
	}
	// A corrupt header width surfaces as an error, never a panic.
	if _, err := PlanFor(33); err == nil {
		t.Fatal("width > 32 must return ErrWidthRange")
	}
}

func TestUnpackFibonacci(t *testing.T) {
	f := func(raw []uint16) bool {
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = uint64(r) + 1
		}
		buf, err := encoding.FibonacciEncodeAll(vals)
		if err != nil {
			return false
		}
		got, err := UnpackFibonacci(buf, len(vals))
		if err != nil {
			return false
		}
		ref, err := encoding.FibonacciDecodeAll(buf, len(vals))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, vals) && reflect.DeepEqual(ref, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackFibonacciTruncated(t *testing.T) {
	buf, _ := encoding.FibonacciEncodeAll([]uint64{5, 9})
	if _, err := UnpackFibonacci(buf, 3); err == nil {
		t.Fatal("expected error for missing codewords")
	}
	if _, err := encoding.FibonacciDecodeAll(buf, 3); err == nil {
		t.Fatal("expected error for missing codewords (reference)")
	}
}

func TestRangeScanner(t *testing.T) {
	for _, w := range []uint{0, 4, 10, 22, 30} {
		vals := seriesWithWidth(2000, w, int64(w)+3)
		b, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		for _, start := range []int{0, 1, 7, 8, 513, 1999, 2000} {
			s, err := NewRangeScanner(b, start)
			if err != nil {
				t.Fatalf("w=%d start=%d: %v", w, start, err)
			}
			var got []int64
			buf := make([]int64, 129) // odd chunk size crosses alignments
			for {
				k, err := s.Next(buf)
				if err != nil {
					t.Fatalf("w=%d start=%d: %v", w, start, err)
				}
				if k == 0 {
					break
				}
				got = append(got, buf[:k]...)
			}
			want := vals[start:]
			if len(got) != len(want) {
				t.Fatalf("w=%d start=%d: rows %d want %d", w, start, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d start=%d: row %d got %d want %d", w, start, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRangeScannerOrder2(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ts := make([]int64, 1500)
	cur := int64(5000)
	interval := int64(100)
	for i := range ts {
		ts[i] = cur
		interval += rng.Int63n(9) - 4
		cur += interval
	}
	b, err := ts2diff.Encode(ts, ts2diff.Order2)
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []int{0, 1, 2, 3, 700, 1499, 1500} {
		s, err := NewRangeScanner(b, start)
		if err != nil {
			t.Fatalf("start=%d: %v", start, err)
		}
		var got []int64
		buf := make([]int64, 97)
		for {
			k, err := s.Next(buf)
			if err != nil {
				t.Fatalf("start=%d: %v", start, err)
			}
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
		}
		want := ts[start:]
		if len(got) != len(want) {
			t.Fatalf("start=%d: rows %d want %d", start, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("start=%d: row %d got %d want %d", start, i, got[i], want[i])
			}
		}
	}
}

func TestRangeScannerValidation(t *testing.T) {
	bad := &ts2diff.Block{Order: 9, Count: 3}
	if _, err := NewRangeScanner(bad, 0); err == nil {
		t.Fatal("unknown order must be rejected")
	}
	b2, _ := ts2diff.Encode([]int64{1, 2, 3}, ts2diff.Order1)
	if _, err := NewRangeScanner(b2, -1); err == nil {
		t.Fatal("negative start must fail")
	}
	if _, err := NewRangeScanner(b2, 4); err == nil {
		t.Fatal("start past end must fail")
	}
	s, _ := NewRangeScanner(b2, 3)
	if k, err := s.Next(make([]int64, 4)); err != nil || k != 0 {
		t.Fatalf("exhausted scanner: %d/%v", k, err)
	}
	if s.Row() != 3 {
		t.Fatalf("row = %d", s.Row())
	}
}

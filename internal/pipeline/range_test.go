package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"etsqp/internal/encoding/ts2diff"
)

func TestDecodeRangeMatchesFullDecode(t *testing.T) {
	for _, w := range []uint{0, 1, 7, 10, 13, 25, 30} {
		vals := seriesWithWidth(513, w, int64(w)+99)
		b, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := DecodeRange(b, 0, b.Count)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(w)))
		ranges := [][2]int{{0, 513}, {0, 1}, {512, 513}, {0, 0}, {513, 513}, {8, 504}, {96, 200}}
		for i := 0; i < 30; i++ {
			from := rng.Intn(514)
			to := from + rng.Intn(514-from)
			ranges = append(ranges, [2]int{from, to})
		}
		for _, rg := range ranges {
			got, err := DecodeRange(b, rg[0], rg[1])
			if err != nil {
				t.Fatalf("w=%d range %v: %v", w, rg, err)
			}
			want := full[rg[0]:rg[1]]
			if len(want) == 0 {
				if len(got) != 0 {
					t.Fatalf("w=%d range %v: got %v", w, rg, got)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("w=%d range %v: mismatch", w, rg)
			}
		}
	}
}

func TestDecodeRangeOrder2(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ts := make([]int64, 300)
	cur := int64(0)
	interval := int64(50)
	for i := range ts {
		ts[i] = cur
		interval += rng.Int63n(7) - 3
		cur += interval
	}
	b, err := ts2diff.Encode(ts, ts2diff.Order2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRange(b, 100, 250)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ts[100:250]) {
		t.Fatal("order-2 range mismatch")
	}
}

func TestDecodeRangeValidation(t *testing.T) {
	b, _ := ts2diff.Encode([]int64{1, 2, 3}, ts2diff.Order1)
	for _, rg := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		if _, err := DecodeRange(b, rg[0], rg[1]); err == nil {
			t.Fatalf("range %v must fail", rg)
		}
	}
}

func TestDecodeRangeUnalignedStart(t *testing.T) {
	// Odd start positions exercise the unaligned scalar path for widths
	// that do not byte-align (e.g., width 10 at from=3 → bit 30).
	vals := seriesWithWidth(100, 10, 5)
	b, _ := ts2diff.Encode(vals, ts2diff.Order1)
	for from := 1; from < 9; from++ {
		got, err := DecodeRange(b, from, 97)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, vals[from:97]) {
			t.Fatalf("from=%d mismatch", from)
		}
	}
}

func TestConstantInterval(t *testing.T) {
	// Regular timestamps → constant interval detected.
	ts := make([]int64, 100)
	for i := range ts {
		ts[i] = 5000 + int64(i)*250
	}
	b, _ := ts2diff.Encode(ts, ts2diff.Order2)
	iv, ok := ConstantInterval(b)
	if !ok || iv != 250 {
		t.Fatalf("got %d/%v want 250/true", iv, ok)
	}
	// Irregular timestamps → not constant.
	ts[50] += 7
	ts[51] += 3
	b2, _ := ts2diff.Encode(ts, ts2diff.Order2)
	if _, ok := ConstantInterval(b2); ok {
		t.Fatal("irregular series must not report constant interval")
	}
	// Order-1 blocks never report.
	b3, _ := ts2diff.Encode(ts, ts2diff.Order1)
	if _, ok := ConstantInterval(b3); ok {
		t.Fatal("order-1 must not report constant interval")
	}
}

func BenchmarkDecodeRangeHalf(b *testing.B) {
	vals := seriesWithWidthB(65536, 10)
	blk, _ := ts2diff.Encode(vals, ts2diff.Order1)
	b.SetBytes(int64(len(vals) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRange(blk, len(vals)/2, len(vals)); err != nil {
			b.Fatal(err)
		}
	}
}

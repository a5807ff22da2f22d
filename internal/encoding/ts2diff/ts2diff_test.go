package ts2diff

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"etsqp/internal/encoding"
)

func TestPaperExample(t *testing.T) {
	// Figure 1(b): velocity with base-reduced deltas. Construct a series
	// whose deltas are close so the packing width is small.
	vals := []int64{12, 16, 22, 27, 33, 38, 44}
	b, err := Encode(vals, Order1)
	if err != nil {
		t.Fatal(err)
	}
	if b.First != 12 {
		t.Fatalf("First = %d", b.First)
	}
	// Deltas: 4 6 5 6 5 6 → base 4, max 6, width 2.
	if b.MinBase != 4 || b.Width != 2 {
		t.Fatalf("MinBase=%d Width=%d, want 4, 2", b.MinBase, b.Width)
	}
	got, err := b.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("decode = %v", got)
	}
}

func TestOrder1RoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		for i := range vals {
			vals[i] %= 1 << 40
		}
		b, err := Encode(vals, Order1)
		if err != nil {
			return false
		}
		got, err := b.Decode()
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOrder2RoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		for i := range vals {
			vals[i] %= 1 << 38
		}
		b, err := Encode(vals, Order2)
		if err != nil {
			return false
		}
		got, err := b.Decode()
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegularTimestampsCompressToZeroWidth(t *testing.T) {
	ts := make([]int64, 1000)
	for i := range ts {
		ts[i] = 1_700_000_000_000 + int64(i)*1000
	}
	b, err := Encode(ts, Order2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Width != 0 {
		t.Fatalf("regular timestamps must pack at width 0, got %d", b.Width)
	}
	if len(b.Packed) != 0 {
		t.Fatalf("payload should be empty, got %d bytes", len(b.Packed))
	}
	got, err := b.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Fatal("round trip mismatch")
	}
}

func TestSmallInputs(t *testing.T) {
	for _, vals := range [][]int64{{}, {42}, {42, 50}, {42, 50, 61}} {
		for _, order := range []Order{Order1, Order2} {
			b, err := Encode(vals, order)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, vals) {
				t.Fatalf("order %d vals %v: got %v", order, vals, got)
			}
		}
	}
}

func TestInvalidOrder(t *testing.T) {
	if _, err := Encode([]int64{1}, Order(3)); err == nil {
		t.Fatal("expected error for invalid order")
	}
}

func TestStatistics(t *testing.T) {
	b, err := Encode([]int64{5, -3, 12, 0}, Order1)
	if err != nil {
		t.Fatal(err)
	}
	if b.MinValue != -3 || b.MaxValue != 12 {
		t.Fatalf("stats = [%d,%d], want [-3,12]", b.MinValue, b.MaxValue)
	}
}

func TestDeltaBounds(t *testing.T) {
	b, err := Encode([]int64{0, 4, 10, 15, 21}, Order1)
	if err != nil {
		t.Fatal(err)
	}
	dm, dM := b.DeltaBounds()
	// Deltas 4 6 5 6: base 4, width 2 → bounds [4, 7].
	if dm != 4 || dM != 7 {
		t.Fatalf("bounds = [%d,%d], want [4,7]", dm, dM)
	}
	// Every actual delta must fall in the bounds (the pruning invariant),
	// at every width: ±2^61 steps pack at width 63, and ±2^62 steps at 64
	// take D_M past int64 before it saturates.
	for _, vals := range [][]int64{
		{0, 4, 10, 15, 21},
		{1 << 61, 0, 1 << 61, 0},
		{0, 1 << 62, 0, -1 << 62, math.MaxInt64, math.MinInt64},
	} {
		b, err := Encode(vals, Order1)
		if err != nil {
			t.Fatal(err)
		}
		dm, dM := b.DeltaBounds()
		for i := 1; i < len(vals); i++ {
			if d := vals[i] - vals[i-1]; d < dm || d > dM {
				t.Fatalf("width %d: delta %d outside bounds [%d,%d]", b.Width, d, dm, dM)
			}
		}
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	f := func(vals []int64, order1 bool) bool {
		for i := range vals {
			vals[i] %= 1 << 38
		}
		order := Order1
		if !order1 {
			order = Order2
		}
		b, err := Encode(vals, order)
		if err != nil {
			return false
		}
		b2, err := Unmarshal(b.Marshal())
		if err != nil {
			return false
		}
		got, err := b2.Decode()
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalAllocatesOnce: Marshal sizes its buffer to the header and
// payload exactly, so a stored page carries no spare capacity.
func TestMarshalAllocatesOnce(t *testing.T) {
	b, err := Encode([]int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, Order1)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = b.Marshal() }); n != 1 {
		t.Fatalf("Marshal allocates %.0f times, want 1", n)
	}
	if out := b.Marshal(); cap(out) != len(out) {
		t.Fatalf("Marshal: len %d, cap %d", len(out), cap(out))
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		append([]byte{0xFF}, make([]byte, 60)...),             // bad magic
		append([]byte{blockMagic, 9, 3}, make([]byte, 60)...), // bad order
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("case %d: expected corruption error", i)
		}
	}
	// Truncated payload: claim more packed bytes than present.
	b, _ := Encode([]int64{1, 5, 9, 20, 100}, Order1)
	raw := b.Marshal()
	if _, err := Unmarshal(raw[:len(raw)-1]); err == nil {
		t.Fatal("expected corruption error on truncated payload")
	}
}

func TestCodecRegistry(t *testing.T) {
	c, err := encoding.Lookup("ts2diff")
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{10, 20, 35, 50}
	blk, err := c.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(blk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("got %v", got)
	}
	if len(c.Semantics()) != 2 {
		t.Fatal("ts2diff must declare Delta+Packing semantics")
	}
	if _, err := encoding.Lookup("ts2diff2"); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	vals := make([]int64, 8192)
	for i := range vals {
		vals[i] = int64(i)*7 + int64(i%13)
	}
	b.SetBytes(int64(len(vals) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(vals, Order1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeScalar(b *testing.B) {
	vals := make([]int64, 8192)
	for i := range vals {
		vals[i] = int64(i)*7 + int64(i%13)
	}
	blk, _ := Encode(vals, Order1)
	b.SetBytes(int64(len(vals) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

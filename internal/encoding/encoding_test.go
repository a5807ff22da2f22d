package encoding

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"etsqp/internal/bitio"
)

func TestZigZagKnownValues(t *testing.T) {
	cases := []struct {
		in   int64
		want uint64
	}{
		{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4},
		{math.MaxInt64, 0xFFFFFFFFFFFFFFFE},
		{math.MinInt64, 0xFFFFFFFFFFFFFFFF},
	}
	for _, c := range cases {
		if got := ZigZag(c.in); got != c.want {
			t.Errorf("ZigZag(%d) = %d, want %d", c.in, got, c.want)
		}
		if back := UnZigZag(c.want); back != c.in {
			t.Errorf("UnZigZag(%d) = %d, want %d", c.want, back, c.in)
		}
	}
}

func TestZigZagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigZagSlices(t *testing.T) {
	in := []int64{-3, 0, 7, -1}
	zz := make([]uint64, len(in))
	for i, v := range in {
		zz[i] = ZigZag(v)
	}
	if got := UnZigZagSlice(zz); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %v want %v", got, in)
	}
}

func TestBitWidth(t *testing.T) {
	cases := []struct {
		vals []uint64
		want uint
	}{
		{nil, 0},
		{[]uint64{0, 0}, 0},
		{[]uint64{1}, 1},
		{[]uint64{0, 7}, 3},
		{[]uint64{1023}, 10},
		{[]uint64{1 << 31}, 32},
		{[]uint64{math.MaxUint64}, 64},
	}
	for _, c := range cases {
		if got := BitWidth(c.vals); got != c.want {
			t.Errorf("BitWidth(%v) = %d, want %d", c.vals, got, c.want)
		}
	}
}

func TestBitWidthSigned(t *testing.T) {
	base, w := BitWidthSigned([]int64{-5, 3, 10})
	if base != -5 || w != 4 { // 10-(-5)=15 -> 4 bits
		t.Fatalf("got base=%d w=%d, want -5, 4", base, w)
	}
	base, w = BitWidthSigned([]int64{7, 7, 7})
	if base != 7 || w != 0 {
		t.Fatalf("constant input got base=%d w=%d", base, w)
	}
	base, w = BitWidthSigned(nil)
	if base != 0 || w != 0 {
		t.Fatalf("empty input got base=%d w=%d", base, w)
	}
}

func TestPackUnpackWidths(t *testing.T) {
	for width := uint(1); width <= 32; width++ {
		vals := make([]uint64, 100)
		for i := range vals {
			vals[i] = uint64(i*2654435761) & (1<<width - 1)
		}
		buf := Pack(vals, width)
		wantBytes := (len(vals)*int(width) + 7) / 8
		if len(buf) != wantBytes {
			t.Fatalf("width %d: %d bytes, want %d", width, len(buf), wantBytes)
		}
		got, err := Unpack(buf, len(vals), width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("width %d: round trip mismatch", width)
		}
	}
}

func TestUnpackShortBuffer(t *testing.T) {
	if _, err := Unpack([]byte{0xFF}, 2, 10); err == nil {
		t.Fatal("expected error on short buffer")
	}
}

// deltaEncode is the first-order delta transform DeltaDecode inverts:
// the first value and the len(vals)-1 differences d[i] = v[i+1] - v[i].
// An empty input yields (0, nil).
func deltaEncode(vals []int64) (first int64, deltas []int64) {
	if len(vals) == 0 {
		return 0, nil
	}
	deltas = make([]int64, len(vals)-1)
	for i := range deltas {
		deltas[i] = vals[i+1] - vals[i]
	}
	return vals[0], deltas
}

func TestDeltaEncodeDecode(t *testing.T) {
	vals := []int64{12, 18, 24, 29, 35, 30, -2}
	first, deltas := deltaEncode(vals)
	if first != 12 {
		t.Fatalf("first = %d", first)
	}
	want := []int64{6, 6, 5, 6, -5, -32}
	if !reflect.DeepEqual(deltas, want) {
		t.Fatalf("deltas = %v, want %v", deltas, want)
	}
	if got := DeltaDecode(first, deltas); !reflect.DeepEqual(got, vals) {
		t.Fatalf("decode = %v, want %v", got, vals)
	}
}

func TestDeltaEmptyAndSingle(t *testing.T) {
	if f, d := deltaEncode(nil); f != 0 || d != nil {
		t.Fatalf("empty: %d %v", f, d)
	}
	f, d := deltaEncode([]int64{42})
	if f != 42 || len(d) != 0 {
		t.Fatalf("single: %d %v", f, d)
	}
	if got := DeltaDecode(42, nil); !reflect.DeepEqual(got, []int64{42}) {
		t.Fatalf("decode single: %v", got)
	}
}

// delta2 is the second-order delta transform Delta2Decode inverts: the
// first value, the first delta, and the len(vals)-2 differences of
// consecutive deltas.
func delta2(vals []int64) (first, firstDelta int64, dd []int64) {
	first, firstDelta = vals[0], vals[1]-vals[0]
	for i := 2; i < len(vals); i++ {
		dd = append(dd, vals[i]-2*vals[i-1]+vals[i-2])
	}
	return first, firstDelta, dd
}

func TestDelta2RoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) < 2 {
			return true
		}
		first, fd, dd := delta2(vals)
		return reflect.DeepEqual(Delta2Decode(first, fd, dd), vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDelta2Known(t *testing.T) {
	// Regular timestamps: second-order deltas are all zero.
	want := []int64{1000, 2000, 3000, 4000, 5000}
	if got := Delta2Decode(1000, 1000, make([]int64, 3)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Delta2Decode(1000, 1000, zeros) = %v, want %v", got, want)
	}
}

func TestRLERoundTrip(t *testing.T) {
	vals := []int64{5, 5, 5, 2, 2, 9, 5, 5}
	runs := RLEEncode(vals)
	want := []Run{{5, 3}, {2, 2}, {9, 1}, {5, 2}}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	var got []int64
	for _, r := range runs {
		for i := 0; i < r.Count; i++ {
			got = append(got, r.Value)
		}
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("expanded runs = %v", got)
	}
	if RLEEncode(nil) != nil {
		t.Fatal("empty input must give nil runs")
	}
}

// deltaRLEEncode is vals as Delta-Repeat pairs, the form DeltaRLEDecode
// expands: the first value and the runs of equal consecutive deltas.
func deltaRLEEncode(vals []int64) (first int64, pairs []DeltaRun) {
	first, deltas := deltaEncode(vals)
	for _, r := range RLEEncode(deltas) {
		pairs = append(pairs, DeltaRun{Delta: r.Value, Count: r.Count})
	}
	return first, pairs
}

func TestDeltaRLERoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		for i := range vals {
			vals[i] %= 1 << 40
		}
		first, pairs := deltaRLEEncode(vals)
		return reflect.DeepEqual(DeltaRLEDecode(first, pairs), vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaRLEDecodeInto: rising, repeated (Delta 0, the broadcast
// branch) and falling runs, written into a buffer with room to spare.
func TestDeltaRLEDecodeInto(t *testing.T) {
	pairs := []DeltaRun{{Delta: 5, Count: 3}, {Delta: 0, Count: 4}, {Delta: -2, Count: 2}}
	want := []int64{10, 15, 20, 25, 25, 25, 25, 25, 23, 21}
	dst := make([]int64, len(want)+1)
	if n := DeltaRLEDecodeInto(dst, 10, pairs); n != len(want) || !reflect.DeepEqual(dst[:n], want) || dst[n] != 0 {
		t.Fatalf("wrote %d values %v, want %v", n, dst, want)
	}
}

func TestDeltaRLERegularSeries(t *testing.T) {
	// A perfectly regular series compresses to a single Delta-Repeat pair.
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i) * 60
	}
	first, pairs := deltaRLEEncode(vals)
	if first != 0 || len(pairs) != 1 || pairs[0] != (DeltaRun{60, 999}) {
		t.Fatalf("first=%d pairs=%v", first, pairs)
	}
}

func TestFibonacciKnownCodes(t *testing.T) {
	// Classic codewords: 1→"11", 2→"011", 3→"0011", 4→"1011", 5→"00011".
	cases := []struct {
		v    uint64
		bits []uint
	}{
		{1, []uint{1, 1}},
		{2, []uint{0, 1, 1}},
		{3, []uint{0, 0, 1, 1}},
		{4, []uint{1, 0, 1, 1}},
		{5, []uint{0, 0, 0, 1, 1}},
		{12, []uint{1, 0, 1, 0, 1, 1}},
	}
	for _, c := range cases {
		w := bitio.NewWriter(2)
		if err := FibonacciEncode(w, c.v); err != nil {
			t.Fatal(err)
		}
		if got := w.BitLen(); got != len(c.bits) {
			t.Fatalf("v=%d: codeword of %d bits, want %d", c.v, got, len(c.bits))
		}
		r := bitio.NewReader(w.Bytes())
		for i, want := range c.bits {
			got, err := r.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("v=%d bit %d: got %d want %d", c.v, i, got, want)
			}
		}
	}
}

func TestFibonacciRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = uint64(r) + 1 // >= 1
		}
		buf, err := FibonacciEncodeAll(vals)
		if err != nil {
			return false
		}
		got, err := FibonacciDecodeAll(buf, len(vals))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFibonacciLargeValues(t *testing.T) {
	vals := []uint64{1, 1 << 20, 1 << 40, 1 << 62, (1 << 62) + 12345}
	buf, err := FibonacciEncodeAll(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FibonacciDecodeAll(buf, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("got %v want %v", got, vals)
	}
}

func TestFibonacciZeroRejected(t *testing.T) {
	w := bitio.NewWriter(1)
	if err := FibonacciEncode(w, 0); err != ErrNotPositive {
		t.Fatalf("got %v want ErrNotPositive", err)
	}
}

func TestFibonacciTruncated(t *testing.T) {
	if _, err := FibonacciDecodeInto(make([]uint64, 1), []byte{0b01010101}, 0); err == nil {
		t.Fatal("expected error decoding codeword without terminator")
	}
}

func TestSemanticsString(t *testing.T) {
	if SemanticsDelta.String() != "Delta" || SemanticsRepeat.String() != "Repeat" ||
		SemanticsPacking.String() != "Packing" || Semantics(99).String() != "Unknown" {
		t.Fatal("Semantics.String mismatch")
	}
}

func BenchmarkPack10Bit(b *testing.B) {
	vals := make([]uint64, 8192)
	for i := range vals {
		vals[i] = uint64(i) & 1023
	}
	b.SetBytes(int64(len(vals) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pack(vals, 10)
	}
}

func BenchmarkUnpack10Bit(b *testing.B) {
	vals := make([]uint64, 8192)
	for i := range vals {
		vals[i] = uint64(i) & 1023
	}
	buf := Pack(vals, 10)
	b.SetBytes(int64(len(vals) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(buf, len(vals), 10); err != nil {
			b.Fatal(err)
		}
	}
}

package rlbe

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
)

func TestRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		for i := range vals {
			vals[i] %= 1 << 40
		}
		b, err := Encode(vals)
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

func TestRegularSeriesIsOneRun(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i) * 50
	}
	b, err := Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRuns != 1 {
		t.Fatalf("NumRuns = %d, want 1", b.NumRuns)
	}
	if len(b.Payload) > 8 {
		t.Fatalf("payload %d bytes for a single run, want tiny", len(b.Payload))
	}
	pairs, err := b.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	if pairs[0] != (encoding.DeltaRun{Delta: 50, Count: 9999}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestPairsExposedForFusion(t *testing.T) {
	vals := []int64{0, 2, 4, 6, 5, 4, 4, 4}
	b, _ := Encode(vals)
	pairs, err := b.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	want := []encoding.DeltaRun{{Delta: 2, Count: 3}, {Delta: -1, Count: 2}, {Delta: 0, Count: 2}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	vals := []int64{7, 7, 7, 9, 11, 13, -5}
	b, _ := Encode(vals)
	b2, err := Unmarshal(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := b2.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("got %v", got)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	for i, c := range [][]byte{nil, {blockMagic, 1}, append([]byte{0x00}, make([]byte, 30)...)} {
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Count mismatch between header and payload is detected at decode.
	b, _ := Encode([]int64{1, 2, 3})
	b.Count = 99
	if _, err := b.Decode(); err == nil {
		t.Fatal("expected count mismatch error")
	}
}

// TestPairsCheckRunTotals: the fused aggregates read Pairs without
// Decode, so Pairs itself refuses runs that cover more or fewer rows
// than Count — an empty block that claims runs included, and a run
// whose codeword wraps.
func TestPairsCheckRunTotals(t *testing.T) {
	b, _ := Encode([]int64{1, 2, 3, 5, 7})
	for _, count := range []int{0, 4, 6} {
		bad := *b
		bad.Count = count
		if _, err := bad.Pairs(); err != ErrCorrupt {
			t.Errorf("Count %d for runs covering 5 rows: Pairs error %v, want ErrCorrupt", count, err)
		}
	}
	if _, err := b.Pairs(); err != nil {
		t.Fatal(err)
	}
	empty, _ := Encode(nil)
	if pairs, err := empty.Pairs(); err != nil || len(pairs) != 0 {
		t.Fatalf("empty block: pairs %v, error %v", pairs, err)
	}
	// A run codeword whose digits sum to 2^64 would wrap to a run of 0
	// rows and leave a one-row block's total right.
	var fib [92]uint64 // F(2) … F(93)
	fib[0], fib[1] = 1, 2
	for i := 2; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	w := bitio.NewWriter(16)
	if err := encoding.FibonacciEncode(w, 1); err != nil { // Δ = 0
		t.Fatal(err)
	}
	var digits [92]uint // of 2^64: F(93), then the greedy digits of 2^64 − F(93)
	digits[91] = 1
	rem := -fib[91]
	for i := 90; i >= 0; i-- {
		if fib[i] <= rem {
			digits[i], rem = 1, rem-fib[i]
		}
	}
	for _, d := range digits {
		w.WriteBit(d)
	}
	w.WriteBit(1)
	wrapped := &Block{Count: 1, First: 7, NumRuns: 1, Payload: w.Bytes()}
	if pairs, err := wrapped.Pairs(); !errors.Is(err, encoding.ErrBadFibCode) {
		t.Fatalf("run codeword of 2^64: pairs %v, error %v, want ErrBadFibCode", pairs, err)
	}
}

func TestCodec(t *testing.T) {
	c, err := encoding.Lookup("rlbe")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Semantics()) != 3 {
		t.Fatal("rlbe combines Delta+Repeat+Packing")
	}
	vals := []int64{10, 10, 10, 20, 30, 40}
	raw, _ := c.Encode(vals)
	got, err := c.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("got %v", got)
	}
}

func BenchmarkEncodeRegular(b *testing.B) {
	vals := make([]int64, 8192)
	for i := range vals {
		vals[i] = int64(i) * 50
	}
	b.SetBytes(int64(len(vals) * 8))
	for i := 0; i < b.N; i++ {
		if _, err := Encode(vals); err != nil {
			b.Fatal(err)
		}
	}
}

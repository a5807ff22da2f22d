package simd

import (
	"testing"
	"testing/quick"
)

func TestShuffleEpi8WithinHalves(t *testing.T) {
	var in B32
	for i := range in {
		in[i] = byte(i)
	}
	var idx B32
	// Reverse bytes within each half; shuffle must not cross halves.
	for i := 0; i < 16; i++ {
		idx[i] = byte(15 - i)
		idx[16+i] = byte(15 - i)
	}
	out := ShuffleEpi8(in, idx)
	for i := 0; i < 16; i++ {
		if out[i] != byte(15-i) {
			t.Fatalf("low half byte %d: got %d want %d", i, out[i], 15-i)
		}
		if out[16+i] != byte(16+15-i) {
			t.Fatalf("high half byte %d: got %d want %d", i, out[16+i], 16+15-i)
		}
	}
}

func TestShuffleEpi8ZeroIdx(t *testing.T) {
	var in B32
	for i := range in {
		in[i] = 0xFF
	}
	var idx B32
	for i := range idx {
		idx[i] = ZeroIdx
	}
	out := ShuffleEpi8(in, idx)
	if out != (B32{}) {
		t.Fatalf("high-bit index should zero the output, got %v", out)
	}
}

func TestSrlvSaturatesAt32(t *testing.T) {
	v := Broadcast32(0xFFFFFFFF)
	shift := U32x8{0, 1, 31, 32, 33, 100, 4, 8}
	got := Srlv32(v, shift)
	want := U32x8{0xFFFFFFFF, 0x7FFFFFFF, 1, 0, 0, 0, 0x0FFFFFFF, 0x00FFFFFF}
	if got != want {
		t.Fatalf("Srlv32 got %v want %v", got, want)
	}
}

func TestLittleEndianLaneView(t *testing.T) {
	var b B32
	b[0], b[1], b[2], b[3] = 0x78, 0x56, 0x34, 0x12
	if got := b.ToU32()[0]; got != 0x12345678 {
		t.Fatalf("lane 0 got %#x want 0x12345678", got)
	}
}

func TestPermutevar8x32(t *testing.T) {
	v := U32x8{10, 11, 12, 13, 14, 15, 16, 17}
	idx := U32x8{7, 6, 5, 4, 3, 2, 1, 0}
	got := Permutevar8x32(v, idx)
	want := U32x8{17, 16, 15, 14, 13, 12, 11, 10}
	if got != want {
		t.Fatalf("got %v want %v", got, want)
	}
	// Index is taken mod 8, as on x86.
	idx2 := U32x8{8, 9, 10, 11, 12, 13, 14, 15}
	if got := Permutevar8x32(v, idx2); got != v {
		t.Fatalf("mod-8 indexing got %v want %v", got, v)
	}
}

func TestInclusivePrefixSum32(t *testing.T) {
	v := U32x8{1, 2, 3, 4, 5, 6, 7, 8}
	got := InclusivePrefixSum32(v)
	want := U32x8{1, 3, 6, 10, 15, 21, 28, 36}
	if got != want {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestPrefixSumQuick(t *testing.T) {
	f := func(v U32x8) bool {
		inc := InclusivePrefixSum32(v)
		var run uint32
		for i := 0; i < Lanes32; i++ {
			run += v[i]
			if inc[i] != run {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArith(t *testing.T) {
	a := U32x8{1, 2, 3, 4, 5, 6, 7, 8}
	b := Broadcast32(10)
	if got := Add32(a, b); got != (U32x8{11, 12, 13, 14, 15, 16, 17, 18}) {
		t.Fatalf("Add32 got %v", got)
	}
	if got := And32(a, Broadcast32(0xFFFFFFFF)); got != a {
		t.Fatalf("And32 got %v", got)
	}
	// Wrapping addition.
	if got := Add32(Broadcast32(0xFFFFFFFF), Broadcast32(1)); got != (U32x8{}) {
		t.Fatalf("Add32 wrap got %v", got)
	}
}

func BenchmarkShuffleEpi8(b *testing.B) {
	var in, idx B32
	for i := range idx {
		idx[i] = byte((i * 7) % 16)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in = ShuffleEpi8(in, idx)
	}
	_ = in
}

func BenchmarkInclusivePrefixSum32(b *testing.B) {
	v := U32x8{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v = InclusivePrefixSum32(v)
	}
	_ = v
}

func TestGatherBytes(t *testing.T) {
	window := []byte{10, 11, 12, 13, 14}
	var idx [32]int32
	for i := range idx {
		idx[i] = int32(i % 6)
	}
	idx[7] = -1
	out := GatherBytes(window, &idx)
	if out[0] != 10 || out[4] != 14 || out[5] != 0 || out[7] != 0 || out[6] != 10 {
		t.Fatalf("got %v", out)
	}
}

package encoding

import (
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"etsqp/internal/bitio"
)

// fibonacciDecodeBits is the bit-at-a-time reference decoder: one ReadBit
// per codeword bit, each 1 adding its Fibonacci weight until the first
// "11", and a digit past fibTable or a sum past 2^64 is ErrBadFibCode.
// FibonacciDecodeInto must agree with it on values, end positions
// and errors for every input.
func fibonacciDecodeBits(r *bitio.Reader) (uint64, error) {
	var v uint64
	prev := uint(0)
	for i := 0; ; i++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if bit == 1 && prev == 1 {
			return v, nil
		}
		if bit == 1 {
			var carry uint64
			if i >= len(fibTable) {
				return 0, ErrBadFibCode
			}
			if v, carry = bits.Add64(v, fibTable[i], 0); carry != 0 {
				return 0, ErrBadFibCode
			}
		}
		prev = bit
	}
}

// checkAgainstBits decodes count codewords from bit start of buf with
// FibonacciDecodeInto — all at once, and one call per codeword — and with
// the reference, and fails unless values, end position and error agree.
func checkAgainstBits(t *testing.T, buf []byte, start, count int) {
	t.Helper()
	r := bitio.NewReader(buf)
	if err := r.Seek(start); err != nil {
		return
	}
	var want []uint64
	var werr error
	for len(want) < count {
		v, err := fibonacciDecodeBits(r)
		if err != nil {
			werr = err
			break
		}
		want = append(want, v)
	}
	got := make([]uint64, count)
	next, err := FibonacciDecodeInto(got, buf, start)
	if !errors.Is(err, werr) || next != r.Pos() || !slices.Equal(got[:len(want)], want) {
		t.Fatalf("%d codewords from bit %d of %x: got %v, next %d, %v; bit loop %v, next %d, %v",
			count, start, buf, got, next, err, want, r.Pos(), werr)
	}
	pos := start
	for i := range got {
		if pos, err = FibonacciDecodeInto(got[i:i+1], buf, pos); err != nil {
			break
		}
	}
	if !errors.Is(err, werr) || pos != r.Pos() || !slices.Equal(got[:len(want)], want) {
		t.Fatalf("one at a time from bit %d of %x: got %v, next %d, %v; bit loop %v, next %d, %v",
			start, buf, got, pos, err, want, r.Pos(), werr)
	}
}

// TestFibonacciDecodeMatchesBits runs the reference over encoded streams
// of short, window-filling and longer-than-a-window codewords, from
// every bit offset of their first byte and cut at every byte length, so
// both the one-window path and the general loop meet every alignment and
// every truncation.
func TestFibonacciDecodeMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, maxBits := range []uint{4, 12, 40, 63} {
		vals := make([]uint64, 40)
		for i := range vals {
			vals[i] = 1 + rng.Uint64()>>(64-maxBits)
		}
		vals[len(vals)/2] = 1<<62 + 12345 // a 90-bit codeword
		buf, err := FibonacciEncodeAll(vals)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(buf); cut++ {
			for start := 0; start < 8; start++ {
				checkAgainstBits(t, buf[:cut], start, len(vals))
			}
		}
	}
	ones := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	for start := 0; start < 8; start++ {
		checkAgainstBits(t, ones, start, 100)
	}
	// Digits past fibTable: 95 zero bits then "11" is a codeword whose
	// top digit has no weight.
	long := make([]byte, 13)
	long[11], long[12] = 0x00, 0x18
	checkAgainstBits(t, long, 0, 1)
	long[6] = 0x01
	checkAgainstBits(t, long, 0, 1)
	// 92 digits can name 2^64 or more, which no uint64 holds: both
	// decoders refuse the digit that carries the sum past 2^64 rather
	// than return the sum modulo 2^64.
	for _, k := range []uint64{0, 1, 12345} {
		buf := codewordPast64(k)
		if _, err := FibonacciDecodeInto(make([]uint64, 1), buf, 0); !errors.Is(err, ErrBadFibCode) {
			t.Errorf("codeword of 2^64+%d: error %v, want ErrBadFibCode", k, err)
		}
		checkAgainstBits(t, buf, 0, 1)
	}
}

// codewordPast64 is the Fibonacci codeword of 2^64 + k (k < 2^63): the
// Zeckendorf digits F(93) and those of the rest, 2^64 + k − F(93), which
// is below F(92), then the terminator.
func codewordPast64(k uint64) []byte {
	var digits [fibDigits]uint
	digits[fibDigits-1] = 1
	rem := k - fibTable[fibDigits-1]
	for i := fibDigits - 2; i >= 0; i-- {
		if fibTable[i] <= rem {
			digits[i], rem = 1, rem-fibTable[i]
		}
	}
	w := bitio.NewWriter(16)
	for _, d := range digits {
		w.WriteBit(d)
	}
	w.WriteBit(1)
	return w.Bytes()
}

// FuzzFibonacciDecode: FibonacciDecodeInto against the bit-at-a-time
// reference on arbitrary bytes, from any bit offset of the first byte,
// for up to count codewords. Seeds live in testdata (go run
// ./cmd/etsqp-gencorpus).
func FuzzFibonacciDecode(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF}, uint16(9), uint8(0))
	f.Add([]byte{0b01011000, 0b11010110}, uint16(4), uint8(3))
	f.Fuzz(func(t *testing.T, buf []byte, count uint16, start uint8) {
		checkAgainstBits(t, buf, int(start%8), int(count))
	})
}

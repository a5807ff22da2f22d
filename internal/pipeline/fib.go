package pipeline

import (
	"errors"

	"etsqp/internal/bitio"
)

// ErrBadFibStream reports a malformed Fibonacci-coded payload.
var ErrBadFibStream = errors.New("pipeline: malformed fibonacci stream")

// fibNumbers mirrors the Zeckendorf basis F(2)=1, F(3)=2, ...
var fibNumbers = func() []uint64 {
	fs := []uint64{1, 2}
	for fs[len(fs)-1] <= 1<<62 {
		fs = append(fs, fs[len(fs)-1]+fs[len(fs)-2])
	}
	return fs
}()

// UnpackFibonacci decodes n Fibonacci codewords from buf using word-at-a-
// time scanning: 64 bits are loaded per step and the (v>>1)&v trick of
// Figure 7(c) locates the "11" terminators, so the scanner touches memory
// once per word instead of once per bit (the vectorized variable-width
// unpack of Section III-A.2).
func UnpackFibonacci(buf []byte, n int) ([]uint64, error) {
	out := make([]uint64, 0, n)
	// Local copy: prove cannot carry len() facts across loads of a
	// package-level slice, so indexing fibNumbers directly keeps a bounds
	// check per digit.
	fibs := fibNumbers
	var (
		cur     uint64 // value being accumulated
		digit   int    // next Zeckendorf digit index
		prevBit uint64 // last bit of the previous word (carry for "11")
	)
	r := bitio.NewReader(buf)
	for r.Remaining() > 0 && len(out) < n {
		// Load up to 64 bits, left-aligned so the scan starts at the MSB.
		nb := min(r.Remaining(), 64)
		v, err := r.ReadBits(uint(nb))
		if err != nil {
			return nil, ErrBadFibStream
		}
		w := v << uint(64-nb)
		// Scan the word's bits from its MSB.
		for i := 0; i < nb && len(out) < n; i++ {
			bit := (w >> uint(63-i)) & 1
			if bit == 1 && prevBit == 1 {
				out = append(out, cur)
				cur, digit, prevBit = 0, 0, 0
				continue
			}
			if bit == 1 {
				if digit >= len(fibs) {
					return nil, ErrBadFibStream
				}
				cur += fibs[digit]
			}
			digit++
			prevBit = bit
		}
	}
	if len(out) < n {
		return nil, ErrBadFibStream
	}
	return out, nil
}

// fibDict is the per-byte terminator dictionary of Figure 7: indexed by
// (carry-in, byte) it yields the number of codeword terminators in the
// byte and the carry-out. The carry is 1 when the byte ends in an
// unconsumed 1 bit (a terminator consumes both of its 1s).
var fibDict = func() (d [2][256]struct{ count, carry uint8 }) {
	for carry := 0; carry < 2; carry++ {
		for b := 0; b < 256; b++ {
			prev := uint8(carry)
			var count uint8
			for i := 7; i >= 0; i-- {
				bit := uint8(b>>uint(i)) & 1
				if bit == 1 && prev == 1 {
					count++
					prev = 0
				} else {
					prev = bit
				}
			}
			d[carry][b] = struct{ count, carry uint8 }{count, prev}
		}
	}
	return d
}()

// CountFibTerminators returns the number of complete codewords in buf —
// the separator count the core-level splitter uses to find codeword
// boundaries in a page slice without decoding values (Section III-C).
// It consumes one dictionary lookup per byte, the vectorizable analogue
// of the shuffle-index dictionary in Figure 7. Masking the carry to one
// bit proves both dictionary indexes in range, so the loop is a pure
// load/add chain.
//
//etsqp:hotpath
//etsqp:nobce
func CountFibTerminators(buf []byte) int {
	count := 0
	carry := uint8(0)
	for _, b := range buf {
		e := fibDict[carry&1][b]
		count += int(e.count)
		carry = e.carry
	}
	return count
}

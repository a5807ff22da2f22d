package encoding

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"etsqp/internal/bitio"
)

// fibTable holds the Fibonacci numbers F(2)=1, F(3)=2, F(4)=3, … up to
// F(93), the largest below 2^64: the basis of Fibonacci (Zeckendorf)
// coding, in which every uint64 v >= 1 has a codeword of at most 92
// digits and its terminator.
var fibTable = func() (t [fibDigits]uint64) {
	t[0], t[1] = 1, 2
	for i := 2; i < len(t); i++ {
		t[i] = t[i-1] + t[i-2]
	}
	return t
}()

// fibDigits is the number of Zeckendorf digits of a uint64: F(94)
// exceeds 2^64.
const fibDigits = 92

// fibIndexByLen[k] is the index in fibTable of the largest Fibonacci
// number at most 2^(k-1) (k >= 1), where fibTop's search for a k-bit
// value starts: every interval [2^(k-1), 2^k) holds at most two
// Fibonacci numbers.
var fibIndexByLen = func() (t [65]uint8) {
	for k := 1; k <= 64; k++ {
		for i, f := range fibTable {
			if f <= 1<<(k-1) {
				t[k] = uint8(i)
			}
		}
	}
	return t
}()

// fibTop returns the index of the largest Fibonacci number at most v
// (v >= 1): the top Zeckendorf digit of v.
func fibTop(v uint64) int {
	i := int(fibIndexByLen[bits.Len64(v)])
	if i < fibDigits-1 && fibTable[i+1] <= v {
		i++
	}
	if i < fibDigits-1 && fibTable[i+1] <= v {
		i++
	}
	return i
}

// ErrNotPositive reports a Fibonacci-coding input below 1.
var ErrNotPositive = errors.New("encoding: fibonacci code requires v >= 1")

// ErrBadFibCode reports a malformed Fibonacci codeword.
var ErrBadFibCode = errors.New("encoding: malformed fibonacci codeword")

// FibonacciEncode appends the Fibonacci codeword for v (v >= 1) to w.
// The codeword lists Zeckendorf digits from F(2) upward and terminates
// with an extra 1, so every codeword ends in "11" and no other "11"
// appears — the self-delimiting property RLBE packing relies on
// (Figure 7: each pair of adjacent 1s marks a termination).
//
// The codeword is built in two registers, digit i (for F(i+2)) at bit
// top+1−i of the pair counted from the terminator's bit 0, one greedy
// step per set digit, and written with one WriteBits call, or two when
// it is longer than 64 bits.
func FibonacciEncode(w *bitio.Writer, v uint64) error {
	if v == 0 {
		return ErrNotPositive
	}
	top := fibTop(v)
	var hi, lo uint64 = 0, 1 // codeword bits 64 and up; bits 0-63
	for rem := v; rem != 0; {
		i := fibTop(rem)
		rem -= fibTable[i]
		if b := uint(top + 1 - i); b < 64 {
			lo |= 1 << b
		} else {
			hi |= 1 << (b - 64)
		}
	}
	if n := uint(top + 2); n > 64 {
		w.WriteBits(hi, n-64)
		w.WriteBits(lo, 64)
	} else {
		w.WriteBits(lo, n)
	}
	return nil
}

// fibByte[c][b] is the value of the Zeckendorf digits in byte b when b
// is byte c of a codeword: Σ fibTable[8c+t] over the set bits t of b,
// counted from the most significant. Eight tables cover every codeword
// whose digits fit one 64-bit window.
var fibByte = func() (t [8][256]uint64) {
	for c := range t {
		for b := range t[c] {
			for d := 0; d < 8; d++ {
				if b&(0x80>>d) != 0 {
					t[c][b] += fibTable[8*c+d]
				}
			}
		}
	}
	return t
}()

// FibonacciDecodeInto decodes len(dst) Fibonacci codewords into dst,
// the first starting at bit pos of buf, and returns the bit position
// after the last. It is the one Fibonacci decoder of the module: every
// RLBE read runs it.
//
// Codewords are decoded one 64-bit window at a time, not bit by bit.
// The window holds the bits from pos on, most significant first, so the
// next codeword's terminator — the second 1 of its first "11" — is the
// leading set bit of w & (w>>1); the digits above it resolve a byte at a
// time through fibByte, and shifting the codeword out of the window
// leaves the next one in place, so a window decodes every codeword it
// holds whole before the next load. A codeword longer than
// what is left of a window, or cut off by the end of buf, takes
// fibonacciDecodeLong.
//
// Errors are those of a bit-at-a-time reader: bitio.ErrShortBuffer when
// buf ends before a terminator, ErrBadFibCode at a digit beyond
// fibTable or at the digit that carries the sum past 2^64. The codewords before the failing one are then in dst, and
// the returned position is where such a reader would have stopped.
//
//etsqp:hotpath
func FibonacciDecodeInto(dst []uint64, buf []byte, pos int) (next int, err error) {
	for i := 0; i < len(dst); {
		if pos >= 0 && pos>>3 < len(buf) {
			w := window(buf, pos)
			out, n := dst[i:], 0
			for ; n < len(out); n++ {
				// Bits past buf or shifted in are zero, so a terminator
				// found is a whole codeword: digits [0, t), terminator t.
				t := bits.LeadingZeros64(w & (w >> 1))
				if t == 64 {
					break
				}
				d := w &^ (^uint64(0) >> t) // t <= 63: digits inside fibTable
				v := fibByte[0][d>>56] + fibByte[1][byte(d>>48)]
				for c := 2; d<<16 != 0; c++ {
					d <<= 8
					v += fibByte[c&7][byte(d>>48)]
				}
				out[n] = v
				w <<= t + 1
				pos += t + 1
			}
			if n > 0 {
				i += n
				continue
			}
		}
		if dst[i], pos, err = fibonacciDecodeLong(buf, pos); err != nil {
			return pos, err
		}
		i++
	}
	return pos, nil
}

// window returns the 64 bits of buf from bit pos on, most significant
// first, zero past the end of buf (0 <= pos < len(buf)*8).
func window(buf []byte, pos int) uint64 {
	var w uint64
	if tail := buf[pos>>3:]; len(tail) >= 8 {
		w = binary.BigEndian.Uint64(tail)
	} else {
		var pad [8]byte
		copy(pad[:], tail)
		w = binary.BigEndian.Uint64(pad[:])
	}
	return w << (pos & 7)
}

// fibonacciDecodeLong decodes the one codeword at bit pos of buf that
// FibonacciDecodeInto's window does not hold whole. It walks windows,
// carrying the last bit of one into the next so a terminator across the
// boundary is seen, and sums digits from fibTable.
func fibonacciDecodeLong(buf []byte, pos int) (v uint64, next int, err error) {
	end := len(buf) * 8
	base, prev := 0, uint64(0) // digit index of the window's first bit, the bit before it
	for 0 <= pos && pos < end {
		w := window(buf, pos)
		n := min(64-pos&7, end-pos) // bits of the window inside buf
		t := bits.LeadingZeros64(w & (w>>1 | prev<<63))
		k := min(t, n) // digits in this window
		d := w &^ (^uint64(0) >> k)
		for d != 0 {
			j := bits.LeadingZeros64(d)
			// A digit past fibTable, or one whose weight carries the sum
			// past 2^64 (92 digits can), names no uint64.
			if base+j >= len(fibTable) {
				return 0, pos + j + 1, ErrBadFibCode
			}
			var carry uint64
			if v, carry = bits.Add64(v, fibTable[base+j], 0); carry != 0 {
				return 0, pos + j + 1, ErrBadFibCode
			}
			d &^= 1 << (63 - j)
		}
		if t < n {
			return v, pos + t + 1, nil
		}
		prev = w >> (64 - n) & 1
		pos += n
		base += n
	}
	return 0, end, bitio.ErrShortBuffer
}

// FibonacciEncodeAll encodes a slice of positive values back to back.
func FibonacciEncodeAll(vals []uint64) ([]byte, error) {
	w := bitio.NewWriter(len(vals) * 2)
	for _, v := range vals {
		if err := FibonacciEncode(w, v); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// FibonacciDecodeAll decodes n codewords from buf.
func FibonacciDecodeAll(buf []byte, n int) ([]uint64, error) {
	out := make([]uint64, n)
	if _, err := FibonacciDecodeInto(out, buf, 0); err != nil {
		return nil, err
	}
	return out, nil
}

package encoding

import (
	"errors"

	"etsqp/internal/bitio"
)

// fibTable holds Fibonacci numbers F(2)=1, F(3)=2, F(4)=3, … up to the
// largest value below 2^63, the basis of Fibonacci (Zeckendorf) coding.
var fibTable = buildFibTable()

func buildFibTable() []uint64 {
	fs := []uint64{1, 2}
	for {
		next := fs[len(fs)-1] + fs[len(fs)-2]
		if next < fs[len(fs)-1] { // overflow
			break
		}
		fs = append(fs, next)
		if next > 1<<62 {
			break
		}
	}
	return fs
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
func FibonacciEncode(w *bitio.Writer, v uint64) error {
	if v == 0 {
		return ErrNotPositive
	}
	// Find the largest Fibonacci number <= v.
	hi := 0
	for hi+1 < len(fibTable) && fibTable[hi+1] <= v {
		hi++
	}
	digits := make([]uint, hi+1)
	rem := v
	for i := hi; i >= 0; i-- {
		if fibTable[i] <= rem {
			digits[i] = 1
			rem -= fibTable[i]
		}
	}
	for _, d := range digits {
		w.WriteBit(d)
	}
	w.WriteBit(1) // terminator: forms the "11" pair with the top digit
	return nil
}

// FibonacciDecode reads one Fibonacci codeword from r.
func FibonacciDecode(r *bitio.Reader) (uint64, error) {
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
			if i >= len(fibTable) {
				return 0, ErrBadFibCode
			}
			v += fibTable[i]
		}
		prev = bit
	}
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
	r := bitio.NewReader(buf)
	out := make([]uint64, n)
	for i := range out {
		v, err := FibonacciDecode(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

package pipeline

import (
	"sync"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
)

// UnpackFibonacciParallel decodes n Fibonacci codewords with multiple
// workers — Section III-C's core-level splitting for variable packing
// widths. A naive split cannot resynchronize inside runs of 1s (the
// value 1 encodes as "11", so "1111" is ambiguous without consumption
// state), so a cheap pre-scan walks the payload with the per-byte
// terminator dictionary of Figure 7 to find the *exact* bit position of
// every segment boundary; each worker then runs encoding.FibonacciDecode
// from its boundary over a disjoint codeword range. The pre-scan does
// one table lookup per byte — far cheaper than value accumulation — so
// the decode still parallelizes.
func UnpackFibonacciParallel(buf []byte, n, workers int) ([]uint64, error) {
	if workers <= 1 || n < workers*4 {
		return UnpackFibonacci(buf, n)
	}
	bounds, err := fibBoundaries(buf, n, workers)
	if err != nil {
		return nil, err
	}
	per := n / workers
	segs := make([][]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			count := per
			if w == workers-1 {
				count = n - w*per
			}
			segs[w], errs[w] = fibSegment(buf, bounds[w], count)
		}()
	}
	wg.Wait()
	out := make([]uint64, 0, n)
	for w := range segs {
		if errs[w] != nil {
			return nil, errs[w]
		}
		out = append(out, segs[w]...)
	}
	return out, nil
}

// fibSegment decodes count codewords starting at the codeword boundary
// at bit start.
func fibSegment(buf []byte, start, count int) ([]uint64, error) {
	r := bitio.NewReader(buf)
	if err := r.Seek(start); err != nil {
		return nil, err
	}
	out := make([]uint64, count)
	for i := range out {
		v, err := encoding.FibonacciDecode(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
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

// fibBoundaries returns the start bit of each worker's segment: worker w
// begins after codeword w·(n/workers), located exactly via the per-byte
// terminator dictionary.
func fibBoundaries(buf []byte, n, workers int) ([]int, error) {
	per := n / workers
	bounds := make([]int, 1, workers)
	seen := 0
	carry := uint8(0)
	for byteIdx := 0; byteIdx < len(buf) && len(bounds) < workers; byteIdx++ {
		e := fibDict[carry][buf[byteIdx]]
		if seen+int(e.count) < len(bounds)*per {
			seen += int(e.count)
			carry = e.carry
			continue
		}
		// One or more boundaries land inside this byte: bit-level scan.
		prev := carry
		for bit := 7; bit >= 0; bit-- {
			b := buf[byteIdx] >> uint(bit) & 1
			if b == 1 && prev == 1 {
				seen++
				prev = 0
				if len(bounds) < workers && seen == len(bounds)*per {
					bounds = append(bounds, byteIdx*8+(7-bit)+1)
				}
				continue
			}
			prev = b
		}
		carry = prev
	}
	if len(bounds) < workers {
		return nil, bitio.ErrShortBuffer // fewer codewords than claimed
	}
	return bounds, nil
}

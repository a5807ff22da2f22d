package pipeline

import "etsqp/internal/encoding"

// UnpackFibonacci decodes n Fibonacci codewords from buf. It is
// probe-only: the benchmark times variable-width unpacking through it,
// and it forwards to encoding.FibonacciDecodeAll, which runs
// encoding.FibonacciDecodeInto, the decoder every RLBE read runs.
func UnpackFibonacci(buf []byte, n int) ([]uint64, error) {
	return encoding.FibonacciDecodeAll(buf, n)
}

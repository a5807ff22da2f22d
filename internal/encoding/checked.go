package encoding

import (
	"math/big"
	"math/bits"
)

// AddChecked adds two int64 detecting overflow: the Section VI-C
// primitive the probe-only fused closed forms fold through.
//
//etsqp:checked add
//etsqp:hotpath
//etsqp:nobce
//etsqp:noescape
//etsqp:inline
func AddChecked(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return s, false
	}
	return s, true
}

// Magnitude is |v| as a uint64, exact for MinInt64: |MinInt64| = 2^63
// fits.
//
//etsqp:hotpath
//etsqp:inline
func Magnitude(v int64) uint64 {
	s := v >> 63
	return uint64((v ^ s) - s)
}

// Int128 is an exact signed sum of int64 values: a two's-complement
// integer over a high and a low word. Fewer than 2^64 terms of at most
// 2^63 stay below 2^127, so no sum of a store's rows can wrap it, in any
// order, slicing or grouping; the Section VI-C judgement is made once,
// when the total is narrowed (Int64). The words are uint64, so every add
// is modular by type and branch-free, and a value, so a running sum in a
// loop stays in registers.
type Int128 struct{ hi, lo uint64 }

// AddInt64 returns s + v.
//
//etsqp:hotpath
//etsqp:rangecheck
//etsqp:inline
func (s Int128) AddInt64(v int64) Int128 {
	lo, c := bits.Add64(s.lo, uint64(v), 0)
	return Int128{s.hi + c + uint64(v>>63), lo} // v's sign extended into the high word
}

// Add returns s + o.
//
//etsqp:hotpath
//etsqp:rangecheck
//etsqp:inline
func (s Int128) Add(o Int128) Int128 {
	lo, c := bits.Add64(s.lo, o.lo, 0)
	return Int128{s.hi + o.hi + c, lo}
}

// AddMul returns s + x·y, the product exact: |x·y| < 2^127.
//
//etsqp:hotpath
//etsqp:rangecheck
//etsqp:inline
func (s Int128) AddMul(x int64, y uint64) Int128 {
	hi, lo := bits.Mul64(uint64(x), y)
	// A negative x reads as x + 2^64 unsigned: take y·2^64 back off.
	return s.Add(Int128{hi - y&uint64(x>>63), lo})
}

// Int64 narrows s to an int64: its low word, and whether that is all of
// s (IsInt64 and Int64 of math/big in one checked call). A total that
// does not fit is the Section VI-C overflow.
//
//etsqp:checked
//etsqp:hotpath
//etsqp:inline
func (s Int128) Int64() (int64, bool) {
	return int64(s.lo), s.hi == uint64(int64(s.lo)>>63)
}

// Big returns s as a big.Int.
func (s Int128) Big() *big.Int {
	x := big.NewInt(int64(s.hi))
	x.Lsh(x, 64)
	return x.Add(x, new(big.Int).SetUint64(s.lo))
}

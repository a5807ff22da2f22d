package encoding

import (
	"math/bits"

	"etsqp/internal/bitio"
)

// BitWidth returns the minimum packing width for the values: the number of
// bits of the largest value, with a floor of 0 for an all-zero input.
func BitWidth(vals []uint64) uint {
	var w uint
	for _, v := range vals {
		if n := uint(bits.Len64(v)); n > w {
			w = n
		}
	}
	return w
}

// BitWidthSigned returns the packing width needed after subtracting base
// (minimum) from every value, plus the base. TS2DIFF packs (v - minBase).
func BitWidthSigned(vals []int64) (base int64, width uint) {
	if len(vals) == 0 {
		return 0, 0
	}
	base = vals[0]
	maxV := vals[0]
	for _, v := range vals[1:] {
		if v < base {
			base = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return base, BitWidth([]uint64{uint64(maxV - base)})
}

// Pack writes each value with the given constant width, big-endian,
// MSB-first — the on-disk format IoT databases flush (Figure 1(b)).
// Values must fit in width bits.
func Pack(vals []uint64, width uint) []byte {
	w := bitio.NewWriter((len(vals)*int(width) + 7) / 8)
	for _, v := range vals {
		w.WriteBits(v, width)
	}
	return w.Bytes()
}

// Unpack reads n values of the given constant width from buf.
// This is the scalar (serial) reference decoder: the oracle the pipeline
// and fusion loops are tested against. Both sides read each field with
// the same bitio.Reader.ReadBits.
func Unpack(buf []byte, n int, width uint) ([]uint64, error) {
	r := bitio.NewReader(buf)
	return UnpackFrom(r, n, width)
}

// UnpackFrom reads n constant-width values from a bit reader.
func UnpackFrom(r *bitio.Reader, n int, width uint) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		v, err := r.ReadBits(width)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

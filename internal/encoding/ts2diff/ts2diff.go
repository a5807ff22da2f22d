// Package ts2diff implements the TS2DIFF combined encoder (Figure 1(b) of
// the paper; the TS_2DIFF format of Apache IoTDB): Delta (order 1 for
// values, order 2 for timestamps) followed by minBase subtraction and
// constant-width bit-packing in big-endian order.
//
// A block holds a header — the first value (and the first delta for order
// 2), the minimum delta minBase, the packing width, the count, and min/max
// value statistics for pruning — followed by (count-1) packed deltas of
// width bits each, where packed[i] = delta[i] - minBase >= 0.
//
// The header statistics are exactly what Section V's pruning rules need:
// the bounds D_m >= minBase and D_M <= minBase + 2^width - 1 follow from
// the stored (minBase, width) pair.
package ts2diff

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
)

// Order selects first- or second-order deltas.
type Order uint8

// Supported delta orders.
const (
	Order1 Order = 1 // values (±)
	Order2 Order = 2 // timestamps (±²)
)

// Block is a parsed TS2DIFF block. The pipeline engine reads the header
// fields directly (packing width, minBase) to build its unpack layout and
// pruning bounds without touching the payload.
type Block struct {
	Order Order
	// Count is the number of original values. Encode rejects longer
	// inputs and Unmarshal parses the count from a uint32, so the bound
	// is a format invariant, not an aspiration; rangeflow seeds kernel
	// intervals from it.
	//
	//etsqp:bounds [0, 1<<32)
	Count      int
	First      int64 // X0
	FirstDelta int64 // D1, order 2 only
	MinBase    int64 // minimum delta (base in Figure 1(b))
	// Width is the packing width omega; Unmarshal rejects widths past 64.
	//
	//etsqp:bounds [0, 64]
	Width    uint
	MinValue int64 // statistics for pruning
	MaxValue int64
	Packed   []byte // big-endian packed (delta - MinBase) values
}

// NumPacked returns the number of packed deltas in the payload.
//
//etsqp:bounds return [0, 1<<32)
//etsqp:rangecheck
func (b *Block) NumPacked() int {
	switch {
	case b.Count <= 1:
		return 0
	case b.Order == Order2:
		if b.Count == 2 {
			return 0
		}
		return b.Count - 2
	default:
		return b.Count - 1
	}
}

// Encode builds a TS2DIFF block from vals using the given delta order:
// the parse of the page the codec writes.
func Encode(vals []int64, order Order) (*Block, error) {
	page, err := encodePage(vals, order)
	if err != nil {
		return nil, err
	}
	return Unmarshal(page)
}

// encodePage writes the serialized block of vals in two passes and one
// allocation. The first pass finds the header: the value bounds and the
// bounds of the differences (vᵢ − vᵢ₋₁ for order 1, the second
// differences for order 2), whose minimum is MinBase and whose span
// sets the width. The second packs each difference less MinBase
// straight into a buffer of exactly the page's size.
func encodePage(vals []int64, order Order) ([]byte, error) {
	if order != Order1 && order != Order2 {
		return nil, fmt.Errorf("ts2diff: invalid order %d", order)
	}
	if len(vals) > math.MaxUint32 {
		// The header stores the count as a uint32; a longer block would
		// round-trip with a silently truncated Count.
		return nil, fmt.Errorf("ts2diff: %d values exceed the 2^32-1 block limit", len(vals))
	}
	var first, firstDelta, minV, maxV int64
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64) // difference bounds
	if len(vals) > 0 {
		first, minV, maxV = vals[0], vals[0], vals[0]
	}
	switch {
	case len(vals) < 2:
	case order == Order1:
		prev := vals[0]
		for _, v := range vals[1:] {
			d := v - prev
			prev = v
			lo, hi = min(lo, d), max(hi, d)
			minV, maxV = min(minV, v), max(maxV, v)
		}
	default:
		firstDelta = vals[1] - vals[0]
		minV, maxV = min(minV, vals[1]), max(maxV, vals[1])
		prev, prevD := vals[1], firstDelta
		for _, v := range vals[2:] {
			d := v - prev
			dd := d - prevD
			prev, prevD = v, d
			lo, hi = min(lo, dd), max(hi, dd)
			minV, maxV = min(minV, v), max(maxV, v)
		}
	}
	fields := max(len(vals)-int(order), 0) // NumPacked
	var minBase int64
	var width uint
	if fields > 0 {
		minBase, width = lo, uint(bits.Len64(uint64(hi-lo)))
	}
	plen := (fields*int(width) + 7) / 8
	w := bitio.NewWriter(headerLen + plen)
	hdr := Block{Order: order, Count: len(vals), First: first, FirstDelta: firstDelta,
		MinBase: minBase, Width: width, MinValue: minV, MaxValue: maxV}
	hdr.writeHeader(w, plen)
	if width > 0 {
		// Each field is the difference at row i (i >= order) less MinBase.
		base := uint64(minBase)
		if order == Order1 {
			for i := 1; i < len(vals); i++ {
				w.WriteBits(uint64(vals[i]-vals[i-1])-base, width)
			}
		} else {
			for i := 2; i < len(vals); i++ {
				w.WriteBits(uint64(vals[i]-2*vals[i-1]+vals[i-2])-base, width)
			}
		}
	}
	return w.Bytes(), nil
}

// Decode recovers the original values. It is the scalar reference
// decoder; queries read blocks through pipeline.RangeScanner, which is
// tested against it.
func (b *Block) Decode() ([]int64, error) {
	if b.Count == 0 {
		return nil, nil
	}
	n := b.NumPacked()
	packed, err := encoding.Unpack(b.Packed, n, b.Width)
	if err != nil {
		return nil, fmt.Errorf("ts2diff: payload: %w", err)
	}
	deltas := make([]int64, n)
	for i, p := range packed {
		deltas[i] = int64(p) + b.MinBase
	}
	switch b.Order {
	case Order2:
		if b.Count == 1 {
			return []int64{b.First}, nil
		}
		return encoding.Delta2Decode(b.First, b.FirstDelta, deltas), nil
	default:
		return encoding.DeltaDecode(b.First, deltas), nil
	}
}

// DeltaBounds returns the pruning bounds of Proposition 5: every delta d
// satisfies D_m <= d <= D_M with D_m = minBase and D_M = minBase +
// 2^width - 1, saturated at MaxInt64 — deltas are int64 differences, so
// none lies above it whatever the width.
func (b *Block) DeltaBounds() (dm, dM int64) {
	dm = b.MinBase
	span := ^uint64(0) >> (64 - b.Width) // 2^width - 1
	if span > uint64(math.MaxInt64)-uint64(dm) {
		return dm, math.MaxInt64
	}
	return dm, dm + int64(span)
}

const blockMagic = 0x7D

// headerLen is the size of a serialized block before its payload.
const headerLen = 51

// Marshal serializes the block (header big-endian, then payload),
// the on-disk format storage pages embed.
func (b *Block) Marshal() []byte {
	w := bitio.NewWriter(headerLen + len(b.Packed))
	b.writeHeader(w, len(b.Packed))
	return append(w.Bytes(), b.Packed...)
}

// writeHeader writes the block's headerLen-byte header, announcing a
// payload of plen bytes: the one writer of the layout UnmarshalBinary
// parses.
func (b *Block) writeHeader(w *bitio.Writer, plen int) {
	w.WriteBits(blockMagic, 8)
	w.WriteBits(uint64(b.Order), 8)
	w.WriteBits(uint64(b.Width), 8)
	w.WriteBits(uint64(b.Count), 32)
	for _, v := range [...]int64{b.First, b.FirstDelta, b.MinBase, b.MinValue, b.MaxValue} {
		w.WriteBits(uint64(v), 64)
	}
	w.WriteBits(uint64(plen), 32)
}

// ErrCorrupt reports a malformed serialized block.
var ErrCorrupt = errors.New("ts2diff: corrupt block")

// Unmarshal parses a serialized block.
func Unmarshal(buf []byte) (*Block, error) {
	b := new(Block)
	if err := b.UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	return b, nil
}

// UnmarshalBinary parses a serialized block into b, which the caller
// owns: a scan over many pages parses each into the same Block and
// allocates none. Packed aliases buf. After an error b holds no usable
// block.
func (b *Block) UnmarshalBinary(buf []byte) error {
	if len(buf) < headerLen || buf[0] != blockMagic {
		return ErrCorrupt
	}
	*b = Block{Order: Order(buf[1]), Width: uint(buf[2])}
	if b.Order != Order1 && b.Order != Order2 || b.Width > 64 {
		return ErrCorrupt
	}
	b.Count = int(binary.BigEndian.Uint32(buf[3:]))
	get := func(off int) int64 { return int64(binary.BigEndian.Uint64(buf[off:])) }
	b.First = get(7)
	b.FirstDelta = get(15)
	b.MinBase = get(23)
	b.MinValue = get(31)
	b.MaxValue = get(39)
	plen := int(binary.BigEndian.Uint32(buf[47:]))
	if len(buf) < headerLen+plen {
		return ErrCorrupt
	}
	b.Packed = buf[headerLen : headerLen+plen]
	if need := (b.NumPacked()*int(b.Width) + 7) / 8; plen < need {
		return ErrCorrupt
	}
	return nil
}

// codec adapts Block to the encoding.Codec registry (order-1 deltas).
type codec struct{ order Order }

func (c codec) Name() string {
	if c.order == Order2 {
		return "ts2diff2"
	}
	return "ts2diff"
}

func (c codec) Semantics() []encoding.Semantics {
	return []encoding.Semantics{encoding.SemanticsDelta, encoding.SemanticsPacking}
}

func (c codec) Encode(vals []int64) ([]byte, error) {
	return encodePage(vals, c.order)
}

func (c codec) Decode(block []byte) ([]int64, error) {
	b, err := Unmarshal(block)
	if err != nil {
		return nil, err
	}
	return b.Decode()
}

func init() {
	encoding.Register(codec{order: Order1})
	encoding.Register(codec{order: Order2})
}

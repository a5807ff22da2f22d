// Package sprintz implements the Sprintz combined encoder for IoT integer
// series (Table I row "Sprintz"): first-order Delta, then ZigZag to make
// deltas non-negative, then constant-width bit-packing.
//
// Sprintz proper packs in small fixed-size groups with per-group headers so
// the width can track local variance; we keep that structure (groups of 64
// deltas, one width byte per group) because it is what gives Sprintz its
// compression/ratio behaviour in the encoder comparison benchmarks.
package sprintz

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding"
)

// GroupSize is the number of deltas covered by one width header.
const GroupSize = 64

// Block is a parsed Sprintz block.
type Block struct {
	Count   int
	First   int64
	Widths  []uint8 // one packing width per group of GroupSize deltas
	Payload []byte  // big-endian packed ZigZag deltas, group by group
}

// Encode builds a Sprintz block in one pass: each group's ZigZag deltas
// are computed into a stack buffer, sized by their widest code, and
// packed.
func Encode(vals []int64) (*Block, error) {
	b := &Block{Count: len(vals)}
	if len(vals) == 0 {
		return b, nil
	}
	b.First = vals[0]
	b.Widths = make([]uint8, 0, (len(vals)-1+GroupSize-1)/GroupSize)
	w := bitio.NewWriter(len(vals))
	var group [GroupSize]uint64
	for off := 1; off < len(vals); off += GroupSize {
		g := group[:min(GroupSize, len(vals)-off)]
		var or uint64
		for i := range g {
			g[i] = encoding.ZigZag(vals[off+i] - vals[off+i-1])
			or |= g[i]
		}
		width := uint(bits.Len64(or))
		b.Widths = append(b.Widths, uint8(width))
		for _, v := range g {
			w.WriteBits(v, width)
		}
	}
	b.Payload = w.Bytes()
	return b, nil
}

// Decode recovers the original values.
func (b *Block) Decode() ([]int64, error) {
	if b.Count == 0 {
		return nil, nil
	}
	n := b.Count - 1
	r := bitio.NewReader(b.Payload)
	zz := make([]uint64, 0, n)
	for g := 0; len(zz) < n; g++ {
		if g >= len(b.Widths) {
			return nil, ErrCorrupt
		}
		take := n - len(zz)
		if take > GroupSize {
			take = GroupSize
		}
		group, err := encoding.UnpackFrom(r, take, uint(b.Widths[g]))
		if err != nil {
			return nil, err
		}
		zz = append(zz, group...)
	}
	return encoding.DeltaDecode(b.First, encoding.UnZigZagSlice(zz)), nil
}

const blockMagic = 0x5A

// ErrCorrupt reports a malformed serialized block.
var ErrCorrupt = errors.New("sprintz: corrupt block")

// Marshal serializes the block.
func (b *Block) Marshal() []byte {
	out := make([]byte, 0, 17+len(b.Widths)+len(b.Payload))
	out = append(out, blockMagic)
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(b.Count))
	out = append(out, tmp[:4]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(b.First))
	out = append(out, tmp[:]...)
	binary.BigEndian.PutUint16(tmp[:2], uint16(len(b.Widths)))
	out = append(out, tmp[:2]...)
	out = append(out, b.Widths...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(b.Payload)))
	out = append(out, tmp[:4]...)
	return append(out, b.Payload...)
}

// Unmarshal parses a serialized block.
func Unmarshal(buf []byte) (*Block, error) {
	if len(buf) < 19 || buf[0] != blockMagic {
		return nil, ErrCorrupt
	}
	b := &Block{Count: int(binary.BigEndian.Uint32(buf[1:]))}
	b.First = int64(binary.BigEndian.Uint64(buf[5:]))
	nw := int(binary.BigEndian.Uint16(buf[13:]))
	if len(buf) < 19+nw {
		return nil, ErrCorrupt
	}
	b.Widths = buf[15 : 15+nw]
	plen := int(binary.BigEndian.Uint32(buf[15+nw:]))
	if len(buf) < 19+nw+plen {
		return nil, ErrCorrupt
	}
	b.Payload = buf[19+nw : 19+nw+plen]
	return b, nil
}

type codec struct{}

func (codec) Name() string { return "sprintz" }

func (codec) Semantics() []encoding.Semantics {
	return []encoding.Semantics{encoding.SemanticsDelta, encoding.SemanticsPacking}
}

func (codec) Encode(vals []int64) ([]byte, error) {
	b, err := Encode(vals)
	if err != nil {
		return nil, err
	}
	return b.Marshal(), nil
}

func (codec) Decode(block []byte) ([]int64, error) {
	b, err := Unmarshal(block)
	if err != nil {
		return nil, err
	}
	return b.Decode()
}

func init() { encoding.Register(codec{}) }

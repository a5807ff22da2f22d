package pipeline

import (
	"encoding/binary"
	"fmt"

	"etsqp/internal/bitio"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/obs"
	"etsqp/internal/simd"
)

// UnpackVec runs the Figure 3 sequence for unpacked vector j of a block:
// gather (shuffle + Endian conversion), variable shift, mask.
// UnpackVec is exported for the fusion package, which reuses the same
// JIT tables to aggregate without materializing decoded values.
//
//etsqp:hotpath
func (p *Plan) UnpackVec(window []byte, j int) simd.U32x8 {
	g := simd.GatherBytes(window, p.gatherIdx[j])
	return simd.And32(simd.Srlv32(g.ToU32(), p.shift[j]), p.mask)
}

// DecodeBlock decodes a TS2DIFF block with the vectorized pipeline
// (Algorithm 1). It is the drop-in fast path for ts2diff.Block.Decode.
func DecodeBlock(b *ts2diff.Block) ([]int64, error) {
	return DecodeRange(b, 0, b.Count)
}

// DecodeBlockInto decodes into a caller-provided slice of length b.Count.
func DecodeBlockInto(out []int64, b *ts2diff.Block) error {
	if len(out) != b.Count {
		return fmt.Errorf("pipeline: dst len %d, want %d", len(out), b.Count)
	}
	return decodeRows(out, b, 0)
}

// accumulateFrom is the order-1 kernel (Algorithm 1): it reads len(out)
// fields of 1..32 bits from the byte-aligned start of packed and fills
// out with the running values after prev,
// out[i] = prev + (i+1)*minBase + sum(packed[0:i+1]). Accumulation wraps
// intentionally: Delta encode and decode are inverse mod 2^64, so
// checked adds here would reject values that round-trip correctly.
//
//etsqp:bounds width [1, 32]
//etsqp:hotpath
func accumulateFrom(out []int64, prev int64, packed []byte, width uint, minBase int64) error {
	p, err := PlanFor(width)
	if err != nil {
		return err
	}
	m := len(out)
	cur := prev
	if p.wide {
		// Fields above MaxNarrowWidth span 5 bytes: 8-byte windows and
		// 64-bit extraction (the two-round shuffle path of wide fields).
		mask := uint64(1)<<width - 1
		for e := range out {
			startBit := e * int(width)
			fb := startBit / 8
			o := uint(startBit - fb*8)
			w, err := window64(packed, fb)
			if err != nil {
				return err
			}
			cur += minBase + int64((w>>(64-o-width))&mask)
			out[e] = cur
		}
		return nil
	}
	// Per-lane base offsets: lane l of vector j decodes element l*Nv+j.
	// Fixed-size locals keep the whole block state on the stack
	// (hotpathalloc-enforced).
	var rampBase [simd.Lanes32]int64
	for l := 0; l < simd.Lanes32; l++ {
		rampBase[l] = minBase * int64(l*p.Nv)
	}
	var vecsArr [MaxNv]simd.U32x8
	vecs := vecsArr[:p.Nv]
	e := 0
	for ; e+p.BlockElems <= m; e += p.BlockElems {
		window := packed[e*int(width)/8:]
		// Lines 6-9: unpack all vectors of the block.
		for j := 0; j < p.Nv; j++ {
			vecs[j] = p.UnpackVec(window, j)
		}
		// Lines 11-12: partial sums across vectors (same-lane chains).
		for j := 1; j < p.Nv; j++ {
			vecs[j] = simd.Add32(vecs[j-1], vecs[j])
		}
		// Line 13: lane prefix sum common to all partial-sum vectors.
		laneTot := vecs[p.Nv-1]
		prefix := simd.ExclusivePrefixSum32(laneTot)
		// Line 15 + store: add prefix and bases, widen, materialize.
		for j := 0; j < p.Nv; j++ {
			s := simd.Add32(vecs[j], prefix)
			base := cur + minBase*int64(j+1)
			for l := 0; l < simd.Lanes32; l++ {
				out[e+l*p.Nv+j] = base + rampBase[l] + int64(s[l])
			}
		}
		total := int64(prefix[simd.Lanes32-1]) + int64(laneTot[simd.Lanes32-1])
		cur += minBase*int64(p.BlockElems) + total
	}
	if e > 0 && obs.Enabled() {
		obs.PipelineVectorOps.Add(int64(e / p.BlockElems * p.Nv))
	}
	// Tail: fewer than BlockElems deltas remain; scalar path.
	if e < m {
		r := bitio.NewReader(packed)
		if err := r.Seek(e * int(width)); err != nil {
			return err
		}
		for ; e < m; e++ {
			v, err := r.ReadBits(width)
			if err != nil {
				return err
			}
			cur += minBase + int64(v)
			out[e] = cur
		}
	}
	return nil
}

// window64 loads 8 bytes big-endian starting at fb, zero-padding past the
// end of the buffer but failing if the window starts outside it. The fb
// guard plus the hoisted tail slice prove every access in range (testing
// fb+8 directly would not: prove must assume the addition can overflow),
// and the whole function stays under the inlining budget so callers pay
// no call overhead.
//
//etsqp:hotpath
//etsqp:nobce
//etsqp:inline
func window64(buf []byte, fb int) (uint64, error) {
	if fb < 0 || fb >= len(buf) {
		return 0, bitio.ErrShortBuffer
	}
	w := buf[fb:]
	if len(w) >= 8 {
		return binary.BigEndian.Uint64(w[:8]), nil
	}
	var tmp [8]byte
	copy(tmp[:], w)
	return binary.BigEndian.Uint64(tmp[:8]), nil
}

// DecodeDeltasInto vector-unpacks m packed fields and adds minBase,
// writing the delta sequence without accumulation — the input the fused
// order-2 and segment sums consume. out must have length m.
//
//etsqp:bounds width [0, 64]
//etsqp:hotpath
func DecodeDeltasInto(out []int64, packed []byte, m int, width uint, minBase int64) error {
	if len(out) != m {
		return bitio.ErrShortBuffer
	}
	if m == 0 {
		return nil
	}
	if width == 0 {
		for i := range out {
			out[i] = minBase
		}
		return nil
	}
	if width > 32 {
		r := bitio.NewReader(packed)
		for e := 0; e < m; e++ {
			v, err := r.ReadBits(width)
			if err != nil {
				return err
			}
			out[e] = minBase + int64(v)
		}
		return nil
	}
	p, err := PlanFor(width)
	if err != nil {
		return err
	}
	if p.wide {
		mask := uint64(1)<<width - 1
		for e := 0; e < m; e++ {
			startBit := e * int(width)
			fb := startBit / 8
			o := uint(startBit - fb*8)
			w, err := window64(packed, fb)
			if err != nil {
				return err
			}
			out[e] = minBase + int64((w>>(64-o-width))&mask)
		}
		return nil
	}
	e := 0
	for ; e+p.BlockElems <= m; e += p.BlockElems {
		window := packed[e*int(width)/8:]
		for j := 0; j < p.Nv; j++ {
			v := p.UnpackVec(window, j)
			for l := 0; l < simd.Lanes32; l++ {
				out[e+l*p.Nv+j] = minBase + int64(v[l])
			}
		}
	}
	if e > 0 && obs.Enabled() {
		obs.PipelineVectorOps.Add(int64(e / p.BlockElems * p.Nv))
	}
	if e < m {
		r := bitio.NewReader(packed)
		if err := r.Seek(e * int(width)); err != nil {
			return err
		}
		for ; e < m; e++ {
			v, err := r.ReadBits(width)
			if err != nil {
				return err
			}
			out[e] = minBase + int64(v)
		}
	}
	return nil
}

// SumPacked returns the sum of the first m packed fields (without
// minBase), using lane-parallel accumulation. Slices use it to resolve
// their prefix dependency and fusion uses it for SUM without decoding.
//
//etsqp:bounds width [0, 64]
//etsqp:hotpath
func SumPacked(packed []byte, m int, width uint) (uint64, error) {
	if m == 0 || width == 0 {
		return 0, nil
	}
	if width > 32 {
		r := bitio.NewReader(packed)
		var total uint64
		for e := 0; e < m; e++ {
			v, err := r.ReadBits(width)
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	}
	p, err := PlanFor(width)
	if err != nil {
		return 0, err
	}
	var total uint64
	e := 0
	if !p.wide {
		for ; e+p.BlockElems <= m; e += p.BlockElems {
			window := packed[e*int(width)/8:]
			acc := simd.U32x8{}
			for j := 0; j < p.Nv; j++ {
				acc = simd.Add32(acc, p.UnpackVec(window, j))
			}
			total += simd.HSum32(acc)
		}
		if e > 0 && obs.Enabled() {
			obs.PipelineVectorOps.Add(int64(e / p.BlockElems * p.Nv))
		}
	}
	if e < m {
		r := bitio.NewReader(packed)
		if err := r.Seek(e * int(width)); err != nil {
			return 0, err
		}
		for ; e < m; e++ {
			v, err := r.ReadBits(width)
			if err != nil {
				return 0, err
			}
			total += v
		}
	}
	return total, nil
}

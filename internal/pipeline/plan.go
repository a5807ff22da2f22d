// Package pipeline implements the ETSQP decoding pipelines of Section III:
// constant-width unpacking with Delta recovery (RangeScanner), page-to-
// slice splitting for core-level parallelism, and the exact-boundary
// split of variable-width Fibonacci payloads (whose decoder and Repeat
// flatten live in internal/encoding).
//
// This file holds the dynamic layout that makes Delta recovery
// SIMD-parallel in the paper (Algorithm 1). On emulated registers it is
// slower than reading each field with one word load, so no query reaches
// it: the tables are exercised by the Algorithm 1 reference in the
// package's tests, the Proposition 1 ablation and the plan-cache probe.
//
// # Layout
//
// A plan processes packed deltas in blocks of BlockElems = 8*Nv elements.
// Element e of a block lands in lane l = e / Nv of unpacked vector
// j = e % Nv, so the Nv deltas that depend on each other sequentially sit
// in the *same lane of consecutive vectors* (the FastLanes-Delta-inspired
// layout of Figure 4(d)). Delta recovery is then Nv-1 vector additions
// (partial sums, Figure 5(b)/6(b)) plus one log-depth lane prefix sum
// (the permutevar8x32 pairs of Algorithm 1 Line 13).
//
// # JIT tables
//
// The paper JIT-compiles each page's decoder once its packing width is
// known (Section III-B). Here PlanFor(width) lazily builds and caches the
// equivalent tables — gather indices (the shuffle index vectors of Figure
// 3(a)), per-lane shift vectors and the field mask — so the block loop
// makes no per-vector decisions.
package pipeline

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"etsqp/internal/simd"
)

// ErrWidthRange reports a packing width outside the plan table range
// [0, 32]. Widths come from page headers, so an out-of-range value means
// a corrupt page — callers surface the error instead of crashing.
var ErrWidthRange = errors.New("pipeline: width out of range")

// Relative instruction costs used by Proposition 1's n_v choice. The
// ratios follow the paper's worked example (n_v = sqrt(32/10 * 11/2) ≈ 4
// for 10-bit inputs): t_add = 1, t_unpack = t_shuffle + t_or = 2 and
// t_prefix - t_add = 11.
const (
	costAdd    = 1.0
	costUnpack = 2.0
	costPrefix = 12.0
)

// MaxNarrowWidth is the widest field a 32-bit lane can unpack with a
// single 4-byte gather (wider fields span 5 bytes and get no tables).
const MaxNarrowWidth = 25

// MaxNv is the register-budget clamp of ChooseNv: the block loop sizes
// its scratch vectors with it so block state lives on the stack.
const MaxNv = 16

// ChooseNv implements Proposition 1: the number of unpacked vectors that
// minimizes the per-value decoding time
//
//	n_v* = round( sqrt( (w'/w) * (t_prefix - t_add) / t_unpack ) )
//
// clamped so a block's worst-case partial sums cannot wrap a 32-bit lane
// (width + log2(8*n_v) <= 32) and to the practical register budget.
func ChooseNv(width, wPrime uint) int {
	if width == 0 {
		return 1
	}
	ideal := int(math.Round(math.Sqrt(float64(wPrime) / float64(width) * (costPrefix - costAdd) / costUnpack)))
	if ideal < 1 {
		ideal = 1
	}
	if ideal > MaxNv {
		ideal = MaxNv // n_v <= 16 on AVX2 machines (Section III-A)
	}
	// Overflow clamp: 8*n_v values of `width` bits each must sum below 2^32.
	for ideal > 1 {
		if width+uint(math.Ceil(math.Log2(float64(8*ideal)))) <= 32 {
			break
		}
		ideal--
	}
	return ideal
}

// Plan holds the JIT-compiled unpack tables for one packing width.
type Plan struct {
	// Width is the packing width; PlanFor rejects widths past 32.
	//
	//etsqp:bounds [0, 32]
	Width uint
	// Nv is the unpacked vectors per block; ChooseNv clamps to [1, MaxNv]
	// and (*Plan).Check enforces the same bound.
	//
	//etsqp:bounds [1, MaxNv]
	Nv int
	// BlockElems is 8 * Nv deltas per block.
	//
	//etsqp:bounds [8, 8*MaxNv]
	BlockElems int
	BlockBytes int // BlockElems * Width / 8 (8*Nv*Width bits is always whole bytes)
	NLoad      int // loaded 256-bit vectors per block (n_ld, for cost models)

	// gatherIdx[j] selects, for each output byte of unpacked vector j,
	// a byte offset relative to the block start (-1 → zero byte). Lane l's
	// four bytes load the big-endian 4-byte window of element l*Nv+j in
	// little-endian lane order, performing the Endian conversion of
	// Algorithm 1 Line 4 in the same shuffle.
	gatherIdx []*[32]int32
	// shift[j] is the per-lane right-shift aligning each field's LSB.
	shift []simd.U32x8
	// mask keeps the low Width bits of every lane.
	mask simd.U32x8
	// ramp[l] = l*Nv, the per-lane element offset used when adding the
	// decoded block to its base value.
	ramp simd.U32x8

	wide bool // widths > MaxNarrowWidth have no tables
}

// planCache holds one published plan per width; a hit is a single atomic
// load.
var planCache [33]atomic.Pointer[Plan]

// PlanFor returns the cached plan for a packing width in [0, 32], or
// ErrWidthRange for wider (corrupt) widths. The declared bound makes the
// precondition a boundscontract obligation: callers prove the width is
// narrowed (page-header validation or an explicit guard) before asking
// for tables. Callers that miss concurrently each build the (identical)
// tables; the first to publish wins the cache slot.
//
//etsqp:bounds width [0, 32]
//etsqp:coldpath
func PlanFor(width uint) (*Plan, error) {
	if width > 32 {
		return nil, ErrWidthRange
	}
	if p := planCache[width].Load(); p != nil {
		return p, nil
	}
	p := buildPlan(width)
	planCache[width].CompareAndSwap(nil, p)
	return p, nil
}

func buildPlan(width uint) *Plan {
	p := &Plan{Width: width, Nv: ChooseNv(width, 32)}
	p.BlockElems = 8 * p.Nv
	p.BlockBytes = p.BlockElems * int(width) / 8
	p.NLoad = (p.BlockBytes + simd.WidthBytes - 1) / simd.WidthBytes
	p.wide = width > MaxNarrowWidth
	if width == 0 || p.wide {
		return p
	}
	var m uint32 = 1<<width - 1
	p.mask = simd.Broadcast32(m)
	for l := 0; l < simd.Lanes32; l++ {
		p.ramp[l] = uint32(l * p.Nv)
	}
	p.gatherIdx = make([]*[32]int32, p.Nv)
	p.shift = make([]simd.U32x8, p.Nv)
	for j := 0; j < p.Nv; j++ {
		idx := new([32]int32)
		var shift simd.U32x8
		for l := 0; l < simd.Lanes32; l++ {
			e := l*p.Nv + j
			startBit := e * int(width)
			fb := startBit / 8
			o := uint(startBit - fb*8)
			// Lane bytes 0..3 (LSB..MSB little-endian) take window bytes
			// fb+3..fb: the gather doubles as Endian conversion.
			for b := 0; b < 4; b++ {
				idx[l*4+b] = int32(fb + 3 - b)
			}
			shift[l] = 32 - uint32(o) - uint32(width)
		}
		p.gatherIdx[j] = idx
		p.shift[j] = shift
	}
	return p
}

// UnpackVec runs the Figure 3 sequence for unpacked vector j of a block:
// gather (shuffle + Endian conversion), variable shift, mask.
//
//etsqp:hotpath
func (p *Plan) UnpackVec(window []byte, j int) simd.U32x8 {
	g := simd.GatherBytes(window, p.gatherIdx[j])
	return simd.And32(simd.Srlv32(g.ToU32(), p.shift[j]), p.mask)
}

// Check verifies the internal consistency of a built plan: block geometry
// is whole bytes, every gather index stays inside the byte window a block
// can legally touch, shifts keep fields inside a 32-bit lane and the mask
// matches the width. TestPlanTableInvariants runs it for every width the
// constructor accepts; Go's bounds checks catch a lane loop that overruns
// its vector.
func (p *Plan) Check() error {
	if p.Nv < 1 || p.Nv > MaxNv {
		return fmt.Errorf("plan width %d: Nv %d outside [1, %d]", p.Width, p.Nv, MaxNv)
	}
	if p.BlockElems != 8*p.Nv {
		return fmt.Errorf("plan width %d: BlockElems %d != 8*Nv", p.Width, p.BlockElems)
	}
	if p.BlockBytes*8 != p.BlockElems*int(p.Width) {
		return fmt.Errorf("plan width %d: BlockBytes %d is not BlockElems*Width/8", p.Width, p.BlockBytes)
	}
	if p.Width == 0 || p.wide {
		if p.gatherIdx != nil || p.shift != nil {
			return fmt.Errorf("plan width %d: table built for degenerate/wide plan", p.Width)
		}
		return nil
	}
	if len(p.gatherIdx) != p.Nv || len(p.shift) != p.Nv {
		return fmt.Errorf("plan width %d: %d gather / %d shift tables for Nv %d", p.Width, len(p.gatherIdx), len(p.shift), p.Nv)
	}
	if p.mask != simd.Broadcast32(1<<p.Width-1) {
		return fmt.Errorf("plan width %d: bad field mask", p.Width)
	}
	// A narrow block's last field ends within BlockBytes, and each gather
	// window extends at most 3 bytes past a field's first byte.
	maxByte := p.BlockBytes + 2 // last field starts before BlockBytes-1, window spans +3
	for j, idx := range p.gatherIdx {
		if idx == nil {
			return fmt.Errorf("plan width %d: nil gather table %d", p.Width, j)
		}
		for b, off := range idx {
			if off < 0 || int(off) > maxByte {
				return fmt.Errorf("plan width %d: gather[%d][%d] = %d outside window [0, %d]", p.Width, j, b, off, maxByte)
			}
		}
		for l := 0; l < simd.Lanes32; l++ {
			if s := p.shift[j][l]; s >= 32 {
				return fmt.Errorf("plan width %d: shift[%d][%d] = %d leaves no field bits", p.Width, j, l, s)
			}
		}
	}
	for l := 0; l < simd.Lanes32; l++ {
		if p.ramp[l] != uint32(l*p.Nv) {
			return fmt.Errorf("plan width %d: ramp[%d] = %d, want %d", p.Width, l, p.ramp[l], l*p.Nv)
		}
	}
	return nil
}

// ResetPlanCache clears all cached plans (test hook).
func ResetPlanCache() {
	for i := range planCache {
		planCache[i].Store(nil)
	}
}

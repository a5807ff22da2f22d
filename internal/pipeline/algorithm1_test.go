package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/simd"
)

// algorithm1Accumulate is the paper's Algorithm 1 block loop over the
// dynamic-layout tables of a narrow plan, kept as the differential
// reference for those tables and as the instrument of the Proposition 1
// n_v ablation (BenchmarkNv). It decodes the whole blocks of BlockElems
// fields that fit in out — out[i] = prev + (i+1)*minBase +
// sum(packed[0:i+1]), wrapping like the scanner — and returns how many
// rows it filled; the caller owns the tail.
func algorithm1Accumulate(p *Plan, out []int64, prev int64, packed []byte, minBase int64) int {
	// Per-lane base offsets: lane l of vector j decodes element l*Nv+j.
	var rampBase [simd.Lanes32]int64
	for l := 0; l < simd.Lanes32; l++ {
		rampBase[l] = minBase * int64(l*p.Nv)
	}
	var vecsArr [MaxNv]simd.U32x8
	vecs := vecsArr[:p.Nv]
	cur := prev
	e := 0
	for ; e+p.BlockElems <= len(out); e += p.BlockElems {
		window := packed[e*int(p.Width)/8:]
		// Lines 6-9: unpack all vectors of the block.
		for j := 0; j < p.Nv; j++ {
			vecs[j] = p.UnpackVec(window, j)
		}
		// Lines 11-12: partial sums across vectors (same-lane chains).
		for j := 1; j < p.Nv; j++ {
			vecs[j] = simd.Add32(vecs[j-1], vecs[j])
		}
		// Line 13: lane prefix sum common to all partial-sum vectors,
		// exclusive: lane l adds the totals of the lanes below it.
		laneTot := vecs[p.Nv-1]
		prefix := simd.InclusivePrefixSum32(laneTot)
		for l := range prefix {
			prefix[l] -= laneTot[l]
		}
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
	return e
}

// TestAlgorithm1MatchesScanner checks the layout tables against the
// cursor the query path runs: at every narrow width, for block counts
// just under, exactly at and well past BlockElems, the reference over
// PlanFor(w), DecodeBlockInto and the scalar oracle agree row for row.
func TestAlgorithm1MatchesScanner(t *testing.T) {
	for w := uint(1); w <= MaxNarrowWidth; w++ {
		p, err := PlanFor(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{p.BlockElems - 1, p.BlockElems, 3*p.BlockElems + 5} {
			name := fmt.Sprintf("width=%d/fields=%d", w, m)
			rng := rand.New(rand.NewSource(int64(w)*31 + int64(m)))
			fields := make([]uint64, m)
			for i := range fields {
				fields[i] = uint64(rng.Int63n(1 << w))
			}
			fields[0] = 1<<w - 1 // every bit of the field set at least once
			b := &ts2diff.Block{Order: ts2diff.Order1, Count: m + 1, First: 7, MinBase: -1000, Width: w,
				Packed: encoding.Pack(fields, w)}
			want, err := b.Decode()
			if err != nil {
				t.Fatal(err)
			}
			scanned := make([]int64, b.Count)
			if err := DecodeBlockInto(scanned, b); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref := make([]int64, b.Count)
			ref[0] = b.First
			e := algorithm1Accumulate(p, ref[1:], b.First, b.Packed, b.MinBase)
			if e != m/p.BlockElems*p.BlockElems {
				t.Fatalf("%s: reference filled %d rows", name, e)
			}
			for ; e < m; e++ { // tail: fewer than BlockElems fields remain
				ref[e+1] = ref[e] + b.MinBase + int64(fields[e])
			}
			for i := range want {
				if ref[i] != want[i] || scanned[i] != want[i] {
					t.Fatalf("%s: row %d: algorithm 1 %d, scanner %d, oracle %d", name, i, ref[i], scanned[i], want[i])
				}
			}
		}
	}
}

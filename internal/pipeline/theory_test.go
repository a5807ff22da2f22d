package pipeline

import (
	"math"
	"testing"
)

// The analytical model of Proposition 1 and Theorem 2, in relative clock
// units. No kernel runs it; TestTheoryEstimates checks that its optimum
// agrees with ChooseNv and that its acceleration estimate is plausible.

// Cost model constants for the analytical estimates (relative clocks,
// consistent with the Proposition 1 constants in plan.go).
const (
	costLoad    = 4.0
	costShuffle = 1.0
	costAnd     = 1.0
	costShift   = 1.0
	costMask    = 1.0
	costRegSave = 1.0
)

// tAvg evaluates Proposition 1's average per-value decoding time for a
// given vector count n_v (relative clock units):
//
//	T = ((t_load+t_shuffle)·n_ld + t_unpack·n_v·n_ld + (t_and+t_shift)·n_v
//	     + (2n_v-1)·t_add + t_prefix) / (n_v · ω_SIMD / ω')
func tAvg(width, wPrime uint, wSIMD uint, nv int) float64 {
	if nv < 1 || width == 0 {
		return 0
	}
	w := float64(width)
	wp := float64(wPrime)
	ws := float64(wSIMD)
	lanes := ws / wp // values per unpacked vector
	// A block holds n_v·lanes values of ω bits: n_ld loads cover them.
	nld := math.Ceil(float64(nv) * lanes * w / ws)
	n := float64(nv)
	num := (costLoad+costShuffle)*nld + costUnpack*n*nld + (costAnd+costShift)*n +
		(2*n-1)*costAdd + costPrefix
	den := n * lanes
	return num / den
}

// serialCost estimates the per-value cost of value-wise serial decoding
// (Theorem 2's T_serial): two memory visits, shift, mask, register save.
//
// visMemRatio is t_visMem / t_op, the memory access pattern parameter.
func serialCost(visMemRatio float64) float64 {
	return 2*visMemRatio*costAdd + costShift + costMask + costRegSave
}

// accelerationRatio evaluates the Theorem 2 estimate of
// T_serial / T_parallel for `cores` pipelines of width `width` inputs
// unpacked to wPrime-bit lanes on wSIMD-bit vectors.
func accelerationRatio(width, wPrime, wSIMD uint, cores int, visMemRatio float64) float64 {
	if width == 0 || cores < 1 {
		return 1
	}
	nv := ChooseNv(width, wPrime)
	perValueParallel := tAvg(width, wPrime, wSIMD, nv) / float64(cores)
	perValueSerial := serialCost(visMemRatio)
	return perValueSerial / perValueParallel
}

func TestTheoryEstimates(t *testing.T) {
	// T_avg must be positive and reach a minimum near ChooseNv's pick.
	best, bestNv := 1e18, 0
	for nv := 1; nv <= 16; nv++ {
		v := tAvg(10, 32, 256, nv)
		if v <= 0 {
			t.Fatalf("tAvg(nv=%d) = %f", nv, v)
		}
		if v < best {
			best, bestNv = v, nv
		}
	}
	chosen := ChooseNv(10, 32)
	if d := bestNv - chosen; d < -1 || d > 1 {
		t.Fatalf("tAvg minimum at nv=%d but ChooseNv=%d", bestNv, chosen)
	}
	// Theorem 2's worked example: ~15x with 16 threads on 10-bit data.
	r := accelerationRatio(10, 32, 256, 16, 4)
	if r < 5 || r > 200 {
		t.Fatalf("acceleration ratio %f out of plausible range", r)
	}
	// More cores → more acceleration.
	if accelerationRatio(10, 32, 256, 8, 4) >= r {
		t.Fatal("ratio must grow with cores")
	}
	if accelerationRatio(0, 32, 256, 8, 4) != 1 {
		t.Fatal("width 0 ratio must be 1")
	}
}

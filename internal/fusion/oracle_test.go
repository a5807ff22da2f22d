// Differential oracle: every Proposition 3 closed form must equal the
// decode-then-aggregate route bit-for-bit — including the float
// aggregates, whose operation order fusion and the oracle share exactly.
// The test lives in an external package so it can import the baseline
// (which depends on engine, which depends on fusion).
package fusion_test

import (
	"fmt"
	"math/rand"
	"testing"

	"etsqp/internal/baseline"
	"etsqp/internal/encoding"
	"etsqp/internal/fusion"
)

func checkPage(t *testing.T, name string, first int64, pairs []encoding.DeltaRun) {
	t.Helper()
	want := baseline.ScalarAggregateDeltaRuns(first, pairs)
	if got := fusion.Count(pairs); got != want.Count {
		t.Errorf("%s: Count = %d, oracle %d", name, got, want.Count)
	}
	sum, err := fusion.Sum(first, pairs)
	if err != nil {
		t.Fatalf("%s: Sum: %v", name, err)
	}
	if sum != want.Sum {
		t.Errorf("%s: Sum = %d, oracle %d", name, sum, want.Sum)
	}
	sq, err := fusion.SumSquares(first, pairs)
	if err != nil {
		t.Fatalf("%s: SumSquares: %v", name, err)
	}
	if sq != want.SumSquares {
		t.Errorf("%s: SumSquares = %d, oracle %d", name, sq, want.SumSquares)
	}
	vr, err := fusion.Variance(first, pairs)
	if err != nil {
		t.Fatalf("%s: Variance: %v", name, err)
	}
	if vr != want.Variance {
		t.Errorf("%s: Variance = %v, oracle %v (must match bit-for-bit)", name, vr, want.Variance)
	}
}

func TestFusionMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		first := int64(rng.Intn(2001) - 1000)
		pairs := make([]encoding.DeltaRun, rng.Intn(20))
		for i := range pairs {
			pairs[i] = encoding.DeltaRun{
				Delta: int64(rng.Intn(11) - 5),
				Count: 1 + rng.Intn(50),
			}
		}
		checkPage(t, fmt.Sprintf("trial%d", trial), first, pairs)
	}
}

func TestFusionOracleEdgePages(t *testing.T) {
	checkPage(t, "no-pairs", 42, nil)
	checkPage(t, "all-repeat", 7, []encoding.DeltaRun{{Delta: 0, Count: 100}})
	checkPage(t, "repeat-runs-only", -11, []encoding.DeltaRun{
		{Delta: 0, Count: 3}, {Delta: 0, Count: 1}, {Delta: 0, Count: 64},
	})
	checkPage(t, "single-run", -3, []encoding.DeltaRun{{Delta: 5, Count: 64}})
	checkPage(t, "single-element-run", 9, []encoding.DeltaRun{{Delta: -2, Count: 1}})
	checkPage(t, "alternating", 0, []encoding.DeltaRun{
		{Delta: 1, Count: 7}, {Delta: -1, Count: 7}, {Delta: 1, Count: 7}, {Delta: -1, Count: 7},
	})
}

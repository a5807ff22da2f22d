package fusion_test

import (
	"fmt"
	"log"

	"etsqp/internal/encoding"
	"etsqp/internal/fusion"
)

// Aggregate a Delta-Repeat encoded series without decoding a single
// value: a one-billion-point run costs one O(1) polynomial evaluation.
func ExampleSum() {
	// The series 10, 13, 16, ... advances by 3 for a billion steps.
	pairs := []encoding.DeltaRun{{Delta: 3, Count: 1_000_000_000}}
	sum, err := fusion.Sum(10, pairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sum)
	// Output: 1500000011500000010
}

// Variance from the fused Σv and Σv² — an algebraic aggregation built on
// associative ones (Proposition 3).
func ExampleVariance() {
	// The series 2, 4, 4, 4, 5, 5, 7, 9 as Delta-Repeat pairs.
	pairs := []encoding.DeltaRun{{Delta: 2, Count: 1}, {Delta: 0, Count: 2},
		{Delta: 1, Count: 1}, {Delta: 0, Count: 1}, {Delta: 2, Count: 2}}
	v, err := fusion.Variance(2, pairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v)
	// Output: 4
}

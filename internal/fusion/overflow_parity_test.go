// Overflow-parity oracle: the probe-only page forms (Sum, SumSquares)
// and the checked decode-then-aggregate route must agree on overflow
// detection, against the exact aggregates of the stored rows. The
// contract is one-directional where it has to be — SumSquares' per-run
// polynomials (n·a², Δ²·Σi², …) can leave int64 on intermediates even
// when every value and running sum fits, and the scalar route checks
// every running sum, so both are allowed to be conservative (return
// ErrOverflow) — but they must NEVER return a silently wrapped value:
//
//  1. fused success ⇒ the result equals the exact big-int value
//     (which therefore fits int64);
//  2. checked-scalar no-overflow ⇒ the scalar fold equals the exact
//     big-int value;
//  3. both succeed ⇒ bit-for-bit agreement.
//
// Sum, the whole-page segment sum, and the segment sums the engine runs
// (assertSegmentsExact) are held to more: exact in 128 bits over the
// stored rows, with no conservative answer.
package fusion_test

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"etsqp/internal/baseline"
	"etsqp/internal/encoding"
	"etsqp/internal/fusion"
	"etsqp/internal/pipeline"
)

// bigAggregate folds Σv and Σv² exactly in big-int arithmetic over the
// stored rows, each row wrapped to int64 as pipeline.FlattenInto writes
// it — the ground truth both integer routes are compared against.
func bigAggregate(first int64, pairs []encoding.DeltaRun) (sum, sumSq *big.Int) {
	stored := make([]int64, fusion.Count(pairs))
	pipeline.FlattenInto(stored, first, pairs)
	sum, sumSq = new(big.Int), new(big.Int)
	v, sq := new(big.Int), new(big.Int)
	for _, x := range stored {
		v.SetInt64(x)
		sum.Add(sum, v)
		sumSq.Add(sumSq, sq.Mul(v, v))
	}
	return sum, sumSq
}

func assertOverflowParity(t *testing.T, name string, first int64, pairs []encoding.DeltaRun) {
	t.Helper()
	bigSum, bigSq := bigAggregate(first, pairs)
	scalar, scOv := baseline.ScalarAggregateDeltaRunsChecked(first, pairs)

	fsum, errSum := fusion.Sum(first, pairs)
	fsq, errSq := fusion.SumSquares(first, pairs)
	if errSum != nil && !errors.Is(errSum, fusion.ErrOverflow) {
		t.Fatalf("%s: Sum returned unexpected error %v", name, errSum)
	}
	if errSq != nil && !errors.Is(errSq, fusion.ErrOverflow) {
		t.Fatalf("%s: SumSquares returned unexpected error %v", name, errSq)
	}

	// (1) Fused success must be exact — never a wrapped value.
	if errSum == nil {
		if !bigSum.IsInt64() || fsum != bigSum.Int64() {
			t.Errorf("%s: fused Sum = %d, exact value %s", name, fsum, bigSum)
		}
	}
	if errSum != nil && bigSum.IsInt64() {
		t.Errorf("%s: Sum reported overflow, stored rows total %s", name, bigSum)
	}
	if errSq == nil {
		if !bigSq.IsInt64() || fsq != bigSq.Int64() {
			t.Errorf("%s: fused SumSquares = %d, exact value %s", name, fsq, bigSq)
		}
	}

	// (2) The checked scalar fold is exact whenever it reports no overflow.
	if !scOv {
		if !bigSum.IsInt64() || scalar.Sum != bigSum.Int64() {
			t.Errorf("%s: checked scalar Sum = %d, exact value %s", name, scalar.Sum, bigSum)
		}
		if !bigSq.IsInt64() || scalar.SumSquares != bigSq.Int64() {
			t.Errorf("%s: checked scalar SumSquares = %d, exact value %s", name, scalar.SumSquares, bigSq)
		}
		// (3) Both routes in range ⇒ bitwise agreement.
		if errSum == nil && fsum != scalar.Sum {
			t.Errorf("%s: fused Sum %d != scalar Sum %d", name, fsum, scalar.Sum)
		}
		if errSq == nil && fsq != scalar.SumSquares {
			t.Errorf("%s: fused SumSquares %d != scalar SumSquares %d", name, fsq, scalar.SumSquares)
		}
	}

	assertSegmentsExact(t, name, first, pairs)

	// The exact value leaving int64 forces overflow reports on BOTH routes:
	// conservative disagreement is allowed only in the fits-int64 direction.
	if !bigSum.IsInt64() {
		if errSum == nil {
			t.Errorf("%s: Sum exact value %s exceeds int64 but fused path succeeded", name, bigSum)
		}
		if !scOv {
			t.Errorf("%s: Sum exact value %s exceeds int64 but checked scalar saw no overflow", name, bigSum)
		}
	}
	if !bigSq.IsInt64() {
		if errSq == nil {
			t.Errorf("%s: SumSquares exact value %s exceeds int64 but fused path succeeded", name, bigSq)
		}
		if !scOv {
			t.Errorf("%s: SumSquares exact value %s exceeds int64 but checked scalar saw no overflow", name, bigSq)
		}
	}
}

// assertSegmentsExact cuts the page at random rows, drawn from a source
// seeded by the page, and holds SumRangeSegmentsExact to math/big over
// the stored rows in every segment: the flattened page, each row wrapped
// to int64 as pipeline.FlattenInto writes it, which is what every decode
// of the page reads. The int64 form SumRangeSegments must then succeed,
// with the same sums, exactly when every segment's total fits int64, and
// otherwise return ErrOverflow.
func assertSegmentsExact(t *testing.T, name string, first int64, pairs []encoding.DeltaRun) {
	t.Helper()
	rows := fusion.Count(pairs)
	rng := rand.New(rand.NewSource(first ^ int64(rows)<<20 ^ int64(len(pairs))))
	cuts := []int{rng.Intn(rows + 1)}
	for k := 1 + rng.Intn(5); k > 0; k-- {
		cuts = append(cuts, cuts[len(cuts)-1]+1+rng.Intn(rows/2+2))
	}
	stored := make([]int64, rows)
	pipeline.FlattenInto(stored, first, pairs)
	exact := make([]encoding.Int128, len(cuts)-1)
	if err := fusion.SumRangeSegmentsExact(first, pairs, cuts, exact); err != nil {
		t.Fatalf("%s: SumRangeSegmentsExact: %v", name, err)
	}
	fits := true
	want := make([]*big.Int, len(exact))
	for s := range exact {
		want[s] = new(big.Int)
		for _, v := range stored[min(cuts[s], rows):min(cuts[s+1], rows)] {
			want[s].Add(want[s], big.NewInt(v))
		}
		if exact[s].Big().Cmp(want[s]) != 0 {
			t.Errorf("%s: SumRangeSegmentsExact cuts %v segment %d = %s, stored rows sum to %s", name, cuts, s, exact[s].Big(), want[s])
		}
		fits = fits && want[s].IsInt64()
	}
	sums := make([]int64, len(cuts)-1)
	switch err := fusion.SumRangeSegments(first, pairs, cuts, sums); {
	case !fits:
		if !errors.Is(err, fusion.ErrOverflow) {
			t.Errorf("%s: SumRangeSegments cuts %v: %v, want ErrOverflow (a segment total leaves int64)", name, cuts, err)
		}
	case err != nil:
		t.Errorf("%s: SumRangeSegments cuts %v: %v, but every segment total fits int64", name, cuts, err)
	default:
		for s := range sums {
			if sums[s] != want[s].Int64() {
				t.Errorf("%s: SumRangeSegments cuts %v segment %d = %d, want %s", name, cuts, s, sums[s], want[s])
			}
		}
	}
}

func TestOverflowParityExtremePages(t *testing.T) {
	cases := []struct {
		name  string
		first int64
		pairs []encoding.DeltaRun
	}{
		{"max-first-step-up", math.MaxInt64, []encoding.DeltaRun{{Delta: 1, Count: 1}}},
		{"min-first-step-down", math.MinInt64, []encoding.DeltaRun{{Delta: -1, Count: 3}}},
		{"half-max-doubled", math.MaxInt64 / 2, []encoding.DeltaRun{{Delta: math.MaxInt64 / 2, Count: 2}}},
		{"sum-fold-wraps", math.MaxInt64 - 10, []encoding.DeltaRun{{Delta: 0, Count: 5}}},
		{"squares-wrap-small-values", 3_100_000_000, []encoding.DeltaRun{{Delta: 0, Count: 2}}},
		{"squares-accumulate-past-max", 3_000_000_000, []encoding.DeltaRun{{Delta: 0, Count: 3}}},
		{"huge-delta-one-step", -3_000_000_000, []encoding.DeltaRun{{Delta: 6_000_000_000, Count: 1}}},
		{"cancelling-walk", math.MaxInt64 / 2, []encoding.DeltaRun{
			{Delta: -math.MaxInt64 / 2, Count: 1}, {Delta: math.MaxInt64 / 2, Count: 1}, {Delta: -math.MaxInt64 / 2, Count: 1},
		}},
		{"long-ramp-wraps", 0, []encoding.DeltaRun{{Delta: 1 << 40, Count: 10_000}}},
		{"moderate-in-range", 1 << 30, []encoding.DeltaRun{{Delta: 1 << 20, Count: 100}, {Delta: -(1 << 19), Count: 200}}},
		{"zero-page", 0, []encoding.DeltaRun{{Delta: 0, Count: 64}}},
	}
	cases = append(cases, totalEdges...)
	for _, c := range cases {
		assertOverflowParity(t, c.name, c.first, c.pairs)
	}

	// Each edge page as one whole-page segment: the stored rows' total,
	// or ErrOverflow exactly when it leaves int64.
	for _, c := range totalEdges {
		rows := fusion.Count(c.pairs)
		stored := make([]int64, rows)
		pipeline.FlattenInto(stored, c.first, c.pairs)
		want := new(big.Int)
		for _, v := range stored {
			want.Add(want, big.NewInt(v))
		}
		var sum [1]int64
		err := fusion.SumRangeSegments(c.first, c.pairs, []int{0, rows}, sum[:])
		if want.IsInt64() && (err != nil || sum[0] != want.Int64()) || !want.IsInt64() && !errors.Is(err, fusion.ErrOverflow) {
			t.Errorf("%s: whole-page segment = %d, %v; stored rows total %s", c.name, sum[0], err, want)
		}
	}

	// Moderate pages must not trip conservative rejection: the fused path
	// has to succeed, not merely be sound, for realistic IoT magnitudes
	// (sensor readings around 2^20 keep Σv² near 2^47, far inside int64).
	moderate := []encoding.DeltaRun{{Delta: 1 << 10, Count: 100}, {Delta: -(1 << 9), Count: 100}}
	sum, err := fusion.Sum(1<<20, moderate)
	if err != nil {
		t.Fatalf("moderate page: fused Sum rejected: %v", err)
	}
	want := baseline.ScalarAggregateDeltaRuns(1<<20, moderate)
	if sum != want.Sum {
		t.Fatalf("moderate page: fused Sum = %d, oracle %d", sum, want.Sum)
	}
	sq, err := fusion.SumSquares(1<<20, moderate)
	if err != nil {
		t.Fatalf("moderate page: fused SumSquares rejected: %v", err)
	}
	if sq != want.SumSquares {
		t.Fatalf("moderate page: fused SumSquares = %d, oracle %d", sq, want.SumSquares)
	}
	var seg [2]int64
	if err := fusion.SumRangeSegments(1<<20, moderate, []int{0, 77, 201}, seg[:]); err != nil || seg[0]+seg[1] != want.Sum {
		t.Fatalf("moderate page: SumRangeSegments = %v, %v; oracle total %d", seg, err, want.Sum)
	}
}

// totalEdges are pages whose stored rows total at or just past the int64
// edges, or leave int64 and come back, and the wrapped-run column
// [MinInt64, MaxInt64, 2^62, 2^62, 2^62], whose first delta (−1) wraps:
// its runs summed in ℤ would fit int64, and its stored rows total
// 3·2^62 − 1, which does not.
var totalEdges = []struct {
	name  string
	first int64
	pairs []encoding.DeltaRun
}{
	{"total-max", 1 << 62, []encoding.DeltaRun{{Delta: -1, Count: 1}, {Delta: -(1<<62 - 1), Count: 1}}},
	{"total-past-max", 1 << 62, []encoding.DeltaRun{{Delta: 0, Count: 1}}},
	{"total-min", -1 << 62, []encoding.DeltaRun{{Delta: 0, Count: 1}}},
	{"total-past-min", -1 << 62, []encoding.DeltaRun{{Delta: 0, Count: 1}, {Delta: 1<<62 - 1, Count: 1}}},
	{"leave-and-return", math.MaxInt64, []encoding.DeltaRun{
		{Delta: 0, Count: 1}, {Delta: 1, Count: 1}, {Delta: 0, Count: 1}, {Delta: math.MinInt64 + 7, Count: 1},
	}},
	{"wrapped-run", math.MinInt64, []encoding.DeltaRun{
		{Delta: -1, Count: 1}, {Delta: -(1<<62 - 1), Count: 1}, {Delta: 0, Count: 2},
	}},
}

// parityRuns decodes the fuzz input shape shared with etsqp-gencorpus:
// 9 bytes per run — a big-endian uint64 delta followed by a count byte.
// Deltas keep their full 64-bit range so the corpus reaches the extreme
// magnitudes the clamped random-walk differential targets never produce;
// counts stay small so the big-int oracle fold stays fast.
func parityRuns(raw []byte) []encoding.DeltaRun {
	const maxRuns = 64
	var pairs []encoding.DeltaRun
	for len(raw) >= 9 && len(pairs) < maxRuns {
		d := int64(binary.BigEndian.Uint64(raw[:8]))
		cnt := 1 + int(raw[8])%32
		pairs = append(pairs, encoding.DeltaRun{Delta: d, Count: cnt})
		raw = raw[9:]
	}
	return pairs
}

func FuzzOverflowParity(f *testing.F) {
	seed := func(first int64, pairs []encoding.DeltaRun) {
		raw := make([]byte, 0, len(pairs)*9)
		for _, p := range pairs {
			var b [9]byte
			binary.BigEndian.PutUint64(b[:8], uint64(p.Delta))
			b[8] = byte(p.Count - 1)
			raw = append(raw, b[:]...)
		}
		f.Add(first, raw)
	}
	seed(math.MaxInt64, []encoding.DeltaRun{{Delta: 1, Count: 1}})
	seed(math.MaxInt64/2, []encoding.DeltaRun{{Delta: math.MaxInt64 / 2, Count: 2}})
	seed(-3_000_000_000, []encoding.DeltaRun{{Delta: 6_000_000_000, Count: 1}})
	seed(1<<30, []encoding.DeltaRun{{Delta: 1 << 20, Count: 31}, {Delta: -(1 << 19), Count: 7}})
	seed(0, []encoding.DeltaRun{{Delta: 1 << 40, Count: 32}})
	for _, c := range totalEdges {
		seed(c.first, c.pairs)
	}

	f.Fuzz(func(t *testing.T, first int64, raw []byte) {
		assertOverflowParity(t, "fuzz", first, parityRuns(raw))
	})
}

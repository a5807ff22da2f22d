package fusion

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/obs"
	"etsqp/internal/pipeline"
)

// randomCuts builds a strictly increasing partition of [0, n] with at
// most k interior cuts (segments may start past 0 and end past n).
func randomCuts(rng *rand.Rand, n, k int) []int {
	set := map[int]bool{}
	for i := 0; i < k; i++ {
		set[rng.Intn(n+n/2+2)] = true
	}
	cuts := make([]int, 0, len(set)+1)
	for c := range set {
		cuts = append(cuts, c)
	}
	for i := range cuts {
		for j := i + 1; j < len(cuts); j++ {
			if cuts[j] < cuts[i] {
				cuts[i], cuts[j] = cuts[j], cuts[i]
			}
		}
	}
	if len(cuts) < 2 {
		cuts = []int{0, n + 1}
	}
	return cuts
}

// checkSegments compares kernel segment sums against decode-then-add:
// the plain sum of decoded[cuts[i]:cuts[i+1]], cuts clamped to the rows
// that exist. A range is one segment, so the range entry points share
// the kernels under test and cannot serve as the oracle.
func checkSegments(t *testing.T, name string, decoded []int64, cuts []int, sums []int64) {
	t.Helper()
	for i, got := range sums {
		from, to := min(cuts[i], len(decoded)), min(cuts[i+1], len(decoded))
		var want int64
		for _, v := range decoded[from:to] {
			want += v
		}
		if got != want {
			t.Fatalf("%s seg [%d,%d): got %d want %d", name, cuts[i], cuts[i+1], got, want)
		}
	}
}

// checkExact holds exact segment sums to math/big over the decoded rows
// decoded[cuts[i]:cuts[i+1]], cuts clamped to the rows that exist.
func checkExact(t *testing.T, name string, decoded []int64, cuts []int, exact []encoding.Int128) {
	t.Helper()
	for i, got := range exact {
		want := new(big.Int)
		for _, v := range decoded[min(cuts[i], len(decoded)):min(cuts[i+1], len(decoded))] {
			want.Add(want, big.NewInt(v))
		}
		if got.Big().Cmp(want) != 0 {
			t.Fatalf("%s seg [%d,%d): got %s want %s", name, cuts[i], cuts[i+1], got.Big(), want)
		}
	}
}

func TestSumRangeSegmentsMatchesDecode(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first, pairs := deltaRuns(randomPairsSeries(seed, 12))
		decoded := encoding.DeltaRLEDecode(first, pairs)
		for _, k := range []int{2, 9} { // one segment (a plain range), then window cuts
			cuts := randomCuts(rng, len(decoded), k)
			sums := make([]int64, len(cuts)-1)
			if err := SumRangeSegments(first, pairs, cuts, sums); err != nil {
				t.Fatal(err)
			}
			checkSegments(t, fmt.Sprintf("seed %d", seed), decoded, cuts, sums)
		}
	}
}

func TestSumRangeSegmentsValidation(t *testing.T) {
	first, pairs := deltaRuns([]int64{1, 2, 3})
	if err := SumRangeSegments(first, pairs, []int{0, 0}, make([]int64, 1)); err == nil {
		t.Fatal("non-increasing cuts must fail")
	}
	if err := SumRangeSegments(first, pairs, []int{-1, 2}, make([]int64, 1)); err == nil {
		t.Fatal("negative cut must fail")
	}
	if err := SumRangeSegments(first, pairs, []int{0, 1, 2}, make([]int64, 1)); err == nil {
		t.Fatal("cuts/sums mismatch must fail")
	}
	// Empty segment list is a no-op.
	if err := SumRangeSegments(first, pairs, []int{3}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumBlockSegmentsMatchesDecode(t *testing.T) {
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed + int64(order)*1000))
			n := rng.Intn(700) + 1
			vals := make([]int64, n)
			cur := rng.Int63n(10000)
			step := rng.Int63n(20) - 10
			for i := range vals {
				vals[i] = cur
				step += rng.Int63n(7) - 3
				cur += step
			}
			b, err := ts2diff.Encode(vals, order)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := b.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 8} {
				cuts := randomCuts(rng, n, k)
				sums := make([]int64, len(cuts)-1)
				if err := SumBlockSegments(b, cuts, sums); err != nil {
					t.Fatal(err)
				}
				checkSegments(t, fmt.Sprintf("order %v seed %d", order, seed), decoded, cuts, sums)
			}
		}
	}
}

// BenchmarkSumRangeSegments times the Delta-Repeat segment walk over a
// 4 096-row page of plateaus (runs of 1…256 equal values), as one
// segment and cut into 1 000-row windows.
func BenchmarkSumRangeSegments(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 4096)
	for i, v := 0, int64(50_000); i < len(vals); v += int64(rng.Intn(81) - 40) {
		for l := 1 + rng.Intn(256); l > 0 && i < len(vals); l, i = l-1, i+1 {
			vals[i] = v
		}
	}
	first, pairs := deltaRuns(vals)
	for _, width := range []int{len(vals), 1000} {
		var cuts []int
		for c := 0; c < len(vals); c += width {
			cuts = append(cuts, c)
		}
		cuts = append(cuts, len(vals))
		sums := make([]int64, len(cuts)-1)
		b.Run(fmt.Sprintf("segments=%d", len(sums)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := SumRangeSegments(first, pairs, cuts, sums); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
		})
	}
}

// seekPage builds an n-row TS2DIFF page whose packed fields are exactly
// width bits wide. Its steps (order-1 deltas, order-2 second
// differences) are small noise plus, from width 2 on, one −X, +X, +X, −X
// run with 2X = 2^(width−1), which stretches the field range to the full
// width while every value and every segment sum stays in int64.
func seekPage(t *testing.T, rng *rand.Rand, order ts2diff.Order, width uint, n int) (*ts2diff.Block, []int64) {
	t.Helper()
	steps := make([]int64, n)
	for i := range steps {
		switch width {
		case 0:
			steps[i] = 3
		case 1:
			steps[i] = -rng.Int63n(2)
		default:
			steps[i] = rng.Int63n(3) - 1
		}
	}
	if width >= 2 {
		x := int64(1) << (width - 2)
		p := rng.Intn(n - 4)
		copy(steps[p:], []int64{-x, x, x, -x})
	}
	vals := make([]int64, n)
	v, d := int64(1e9), int64(0)
	for i := range vals {
		vals[i] = v
		if order == ts2diff.Order1 {
			v += steps[i]
		} else {
			v += d
			d += steps[i]
		}
	}
	b, err := ts2diff.Encode(vals, order)
	if err != nil {
		t.Fatal(err)
	}
	if b.Width != width {
		t.Fatalf("order %v page packs %d bits, want %d", order, b.Width, width)
	}
	return b, vals
}

// seekCuts returns, for a first cut c0 on an n-row page, one segment to
// the end and 1 000-row windows whose last cut lies past the page.
func seekCuts(c0, n int) [][]int {
	windows := []int{c0}
	for c := c0; c < n; {
		c += 1000
		windows = append(windows, c)
	}
	return [][]int{{c0, n}, windows}
}

// TestSumBlockSegmentsSeek holds the segment walk, which resets its
// RangeScanner to the first cut, to the decoded sums at every first cut
// around the grids the scanner reads on: the byte boundary every 8
// fields, where ReadFields' bit-at-a-time head gives way to 64-field
// unpack groups, and the walk's 128-row chunk. The field widths end a
// byte, a word or the int64 range.
func TestSumBlockSegmentsSeek(t *testing.T) {
	const n = 4096
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		for _, width := range []uint{0, 1, 7, 33, 63, 64} {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed<<8 | int64(width)<<1 | int64(order)))
				b, vals := seekPage(t, rng, order, width, n)
				for _, c0 := range []int{0, 1, 2, 8, 9, 127, 128, 129, 2049, n - 1} {
					for _, cuts := range seekCuts(c0, n) {
						sums := make([]int64, len(cuts)-1)
						name := fmt.Sprintf("order %v width %d seed %d cuts %v", order, width, seed, cuts)
						if err := SumBlockSegments(b, cuts, sums); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkSegments(t, name, vals, cuts, sums)
						exact := make([]encoding.Int128, len(cuts)-1)
						if err := SumBlockSegmentsExact(b, cuts, exact); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkExact(t, name, vals, cuts, exact)
					}
				}
			}
		}
	}
}

// TestSumBlockSegmentsSeekWrap: a step that wraps int64 is exact mod 2^64
// in the prefix the walk seeks past, so the page answers with the
// decoded sums; the same step inside a segment is a stored row like any
// other, so the exact walk sums the segment in 128 bits — past MaxInt64
// here, which the int64 form reports as ErrOverflow.
func TestSumBlockSegmentsSeekWrap(t *testing.T) {
	const n, spike = 4096, 100
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1000 + int64(i%7)
	}
	// -10 → MaxInt64-5 is a step of MaxInt64+5: it wraps.
	vals[spike-1], vals[spike] = -10, math.MaxInt64-5
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		b, err := ts2diff.Encode(vals, order)
		if err != nil {
			t.Fatal(err)
		}
		for _, cuts := range seekCuts(2049, n) {
			sums := make([]int64, len(cuts)-1)
			if err := SumBlockSegments(b, cuts, sums); err != nil {
				t.Fatalf("order %v cuts %v: wrap before the first cut: %v", order, cuts, err)
			}
			checkSegments(t, fmt.Sprintf("order %v cuts %v", order, cuts), vals, cuts, sums)
		}
		for _, cuts := range seekCuts(spike-50, n) {
			exact := make([]encoding.Int128, len(cuts)-1)
			if err := SumBlockSegmentsExact(b, cuts, exact); err != nil {
				t.Fatalf("order %v cuts %v: wrap inside a segment: %v", order, cuts, err)
			}
			checkExact(t, fmt.Sprintf("order %v cuts %v", order, cuts), vals, cuts, exact)
			if _, ok := exact[0].Int64(); ok {
				t.Fatalf("order %v cuts %v: the spike's segment fits int64; the test no longer crosses MaxInt64", order, cuts)
			}
			sums := make([]int64, len(cuts)-1)
			if err := SumBlockSegments(b, cuts, sums); !errors.Is(err, ErrOverflow) {
				t.Fatalf("order %v cuts %v: int64 form returned %v, want ErrOverflow", order, cuts, err)
			}
		}
	}
}

// gridCuts are partitions of an n-row page (n > 200) whose cuts fall on
// rows ≡ 0, 1, 2, 63, 64 and 65 (mod 64), around the grids on which the
// walk's order-1 (row ≡ 1) and order-2 (row ≡ 2) chunks end, with
// one-row segments and the page's tail, and a last cut past the page.
func gridCuts(n int) [][]int {
	all := []int{0}
	for base := 0; base+65 < n; base += 64 {
		for _, r := range []int{1, 2, 63, 64, 65} {
			if c := base + r; c > all[len(all)-1] {
				all = append(all, c)
			}
		}
	}
	all = append(all, n)
	parts := [][]int{
		{0, n},
		all,
		{5, 6, 7, 64, 65, 66, n - 1, n},
		{n - 1, n},
		{n - 70, n + 5},
	}
	for _, r := range []int{0, 1, 2, 63, 64, 65} {
		cuts := []int{r}
		for c := r + 64; c < n; c += 128 {
			cuts = append(cuts, c)
		}
		parts = append(parts, append(cuts, n+1))
	}
	return parts
}

// TestSumBlockSegmentsExactGrid holds the fused walk to a per-row Int128
// reference over the rows DecodeRange rebuilds, at every field width
// 0–64 and both orders, on pages whose fields are random at full width
// and whose First and MinBase take the int64 extremes, so the rows wrap
// as the decode wraps them. The walk's chunks end on the order's
// 64-field grid and at each segment's end; order 1 folds each chunk
// where it is unpacked (RangeScanner.SumNext), so its Int128 must come
// out equal to the sum of the decoded rows however they wrap.
func TestSumBlockSegmentsExactGrid(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(64))
	extremes := []struct{ first, minBase int64 }{
		{0, 0},
		{rng.Int63() - math.MaxInt64/2, rng.Int63n(1<<20) - 1<<19},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64},
		{math.MaxInt64 - 3, 1},
		{math.MinInt64 + 3, -1 << 40},
	}
	for _, order := range []ts2diff.Order{ts2diff.Order1, ts2diff.Order2} {
		for w := uint(0); w <= 64; w++ {
			for _, x := range extremes {
				b := &ts2diff.Block{Order: order, Count: n, First: x.first, FirstDelta: x.minBase, MinBase: x.minBase, Width: w}
				fields := make([]uint64, b.NumPacked())
				for i := range fields {
					fields[i] = rng.Uint64() >> (64 - w) // 0 at width 0
				}
				b.Packed = encoding.Pack(fields, w)
				rows, err := pipeline.DecodeRange(b, 0, n)
				if err != nil {
					t.Fatal(err)
				}
				if scalar, err := b.Decode(); err != nil || !slices.Equal(rows, scalar) {
					t.Fatalf("order %v width %d: DecodeRange differs from the scalar decode (%v)", order, w, err)
				}
				for _, cuts := range gridCuts(n) {
					got := make([]encoding.Int128, len(cuts)-1)
					if err := SumBlockSegmentsExact(b, cuts, got); err != nil {
						t.Fatalf("order %v width %d cuts %v: %v", order, w, cuts, err)
					}
					for i := range got {
						var want encoding.Int128
						for _, v := range rows[min(cuts[i], n):min(cuts[i+1], n)] {
							want = want.AddInt64(v)
						}
						if got[i] != want {
							t.Fatalf("order %v width %d first %d minBase %d seg [%d,%d): got %s want %s",
								order, w, x.first, x.minBase, cuts[i], cuts[i+1], got[i].Big(), want.Big())
						}
					}
				}
			}
		}
	}
}

// BenchmarkSumBlockSegments times the TS2DIFF segment walk over a
// 4 096-row order-1 page of width 8: the whole page, one 2 000-row range
// that starts mid-page, and 1 000-row windows. ns/row counts the rows the
// segments cover, so rows the walk seeks past cost per covered row. Each
// case runs once as is, with obs disabled, and once as a server runs it:
// obs enabled and the walk on every core at once (b.RunParallel), so a
// shared counter the walk touches is contended; there ns/row is wall
// time over the rows all goroutines covered.
func BenchmarkSumBlockSegments(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 4096)
	for i, v := 0, int64(50_000); i < len(vals); i++ {
		vals[i] = v
		v += int64(rng.Intn(256) - 128)
	}
	blk, err := ts2diff.Encode(vals, ts2diff.Order1)
	if err != nil || blk.Width != 8 {
		b.Fatalf("page: width %d, err %v", blk.Width, err)
	}
	for _, c := range []struct {
		name string
		cuts []int
	}{
		{"page", []int{0, len(vals)}},
		{"range2000", []int{1500, 3500}},
		{"windows1000", []int{0, 1000, 2000, 3000, 4000, len(vals)}},
	} {
		sums := make([]int64, len(c.cuts)-1)
		rows := c.cuts[len(c.cuts)-1] - c.cuts[0]
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := SumBlockSegments(blk, c.cuts, sums); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
		b.Run(c.name+"/obs-parallel", func(b *testing.B) {
			obs.Enable()
			defer func() {
				obs.Disable()
				obs.Reset()
			}()
			b.RunParallel(func(pb *testing.PB) {
				sums := make([]int64, len(c.cuts)-1)
				for pb.Next() {
					if err := SumBlockSegments(blk, c.cuts, sums); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

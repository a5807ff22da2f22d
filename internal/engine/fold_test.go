package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/pipeline"
	"etsqp/internal/prune"
)

// foldByValue is foldRange's reference: the range test and addValue,
// value by value.
func foldByValue(p *partialAgg, vals []int64, c1, c2 int64) {
	for _, v := range vals {
		if v >= c1 && v <= c2 {
			p.addValue(v)
		}
	}
}

// TestFoldRangeParity: the chunk fold must leave partialAgg exactly as
// the per-value addValue loop does — sum, count, min, max, seen and the
// sticky overflow flag always, sumSq when VAR is planned — over chunks
// that hold the int64 extremes, ranges that end at them, running sums
// within one value of ±2^63 (so only the checked redo can set the flag
// at the right row, or leave it clear), empty selections and inverted
// ranges, at lengths on both sides of a chunk.
func TestFoldRangeParity(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	pick := func() int64 {
		switch r.Intn(4) {
		case 0:
			return edges[r.Intn(len(edges))]
		case 1:
			return r.Int63n(2001) - 1000
		case 2:
			return int64(r.Uint64()) // anywhere in int64
		default:
			return (r.Int63n(2001) - 1000) << 52 // a few of these wrap a sum
		}
	}
	starts := []partialAgg{
		{},
		{sum: math.MaxInt64, count: 1, min: math.MaxInt64, max: math.MaxInt64, seen: true},
		{sum: math.MaxInt64 - 3, count: 7, min: -5, max: 1 << 61, seen: true},
		{sum: math.MinInt64, count: 1, min: math.MinInt64, max: math.MinInt64, seen: true},
		{sum: math.MinInt64 + 2, count: 3, min: math.MinInt64 + 2, max: 0, seen: true},
		{sum: 12, count: math.MaxInt64 - 2, min: 3, max: 4, seen: true},
		{sum: -1, count: 2, min: -1, max: 0, seen: true, overflow: true},
	}
	for iter := 0; iter < 4000; iter++ {
		n := []int{0, 1, 2, 63, 700, pruneChunk - 1, pruneChunk, pruneChunk + 1, 2*pruneChunk + 17}[r.Intn(9)]
		vals := make([]int64, n)
		small := r.Intn(3) == 0 // chunks the magnitude bound admits
		for i := range vals {
			if vals[i] = pick(); small {
				vals[i] = r.Int63n(1<<20) - 1<<19
			}
		}
		c1, c2 := pick(), pick()
		if r.Intn(8) != 0 && c1 > c2 {
			c1, c2 = c2, c1 // keep a share of inverted (empty) ranges
		}
		if r.Intn(4) == 0 {
			c1, c2 = math.MinInt64, math.MaxInt64
		}
		start := starts[r.Intn(len(starts))]
		if small && r.Intn(2) == 0 {
			// One value away from the edge: whether the chunk overflows
			// turns on the sign of its first selected values.
			start.sum = []int64{math.MaxInt64, math.MinInt64}[r.Intn(2)] - int64(r.Intn(3)) + 1
		}
		for _, sq := range []bool{false, true} {
			got, want := start, start
			got.foldRange(vals, c1, c2, sq)
			foldByValue(&want, vals, c1, c2)
			if !sq {
				got.sumSq, want.sumSq = wide{}, wide{} // not kept unless VAR is planned
			}
			if got != want {
				t.Fatalf("iter %d: %d values in [%d, %d] from %+v (sq=%v):\nfoldRange %+v\naddValue  %+v", iter, n, c1, c2, start, sq, got, want)
			}
		}
	}
}

// TestFoldRangeAllocs: the fold and its kernel work in registers.
func TestFoldRangeAllocs(t *testing.T) {
	vals := make([]int64, 3*pruneChunk+5)
	for i := range vals {
		vals[i] = int64(i%97) << uint(i%3*30) // the top third forces the checked redo
	}
	var p partialAgg
	if n := testing.AllocsPerRun(50, func() {
		p.foldRange(vals, 5, 1<<62, true)
	}); n != 0 {
		t.Fatalf("foldRange allocates %.1f/op", n)
	}
	if !p.overflow {
		t.Fatal("the redo path was not reached: running sum never overflowed")
	}
}

// BenchmarkFoldRange times the chunk fold against the per-value loop at
// a selectivity branches mispredict on (half) and one they predict.
func BenchmarkFoldRange(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]int64, pruneChunk)
	for i := range vals {
		vals[i] = r.Int63n(2000)
	}
	for _, c1 := range []int64{1000, 1900} {
		b.Run(fmt.Sprintf("chunk/c1=%d", c1), func(b *testing.B) {
			var p partialAgg
			for i := 0; i < b.N; i++ {
				p = partialAgg{}
				p.foldRange(vals, c1, 1<<62, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
		b.Run(fmt.Sprintf("addValue/c1=%d", c1), func(b *testing.B) {
			var p partialAgg
			for i := 0; i < b.N; i++ {
				p = partialAgg{}
				foldByValue(&p, vals, c1, 1<<62)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
	}
}

// walkPage builds an order-1 page of n rows from first whose deltas are a
// hash spread over a width-bit range (0..64), the first two at its ends,
// so that it packs at exactly that width once n > 2; rows wrap freely at
// the widest.
func walkPage(n int, first int64, width uint, seed uint64) []int64 {
	lo, span := int64(0), ^uint64(0)>>(64-width)
	if width == 64 {
		lo = math.MinInt64
	}
	vals := make([]int64, n)
	cur := first
	for i := range vals {
		vals[i] = cur
		seed = (seed + 1) * 0x9E3779B97F4A7C15
		d := seed ^ seed>>29
		switch i {
		case 0:
			d = 0
		case 1:
			d = span
		}
		cur += lo + int64(d&span)
	}
	return vals
}

// headerBound is the one pass's magnitude bound over b, as the scanner
// route of foldSegments takes it from the header's reach over the whole
// page.
func headerBound(b *ts2diff.Block) (uint64, bool) {
	lo, hi, ok := prune.BoundsFromBlock(b).Reach(b.First, uint64(b.Count-1))
	return max(encoding.Magnitude(lo), encoding.Magnitude(hi)), ok
}

// checkScanFold scans vals from row from in chunks of chunk rows twice:
// through plan.scanFold, and through Next + foldRange, the decode-then-fold
// path it replaces, each from the running partial start, with c1 <= c2
// (the plan's sumFold condition). After every chunk both scanners must
// stand at the same place and both partials agree on everything but the
// minimum and maximum, which the one pass does not keep. A page without a
// header bound runs with bound MaxUint64, which no chunk passes, so every
// chunk takes the redo; a page with one must have no row beyond it.
func checkScanFold(t *testing.T, vals []int64, from, chunk int, c1, c2 int64, start partialAgg) {
	t.Helper()
	var chunks []int
	for row := from; row < len(vals); row += chunk {
		chunks = append(chunks, min(chunk, len(vals)-row))
	}
	checkScanFoldChunks(t, vals, from, chunks, c1, c2, start)
}

// checkScanFoldChunks is checkScanFold over a given sequence of chunk
// lengths from row from.
func checkScanFoldChunks(t *testing.T, vals []int64, from int, chunks []int, c1, c2 int64, start partialAgg) {
	t.Helper()
	b, err := ts2diff.Encode(vals, ts2diff.Order1)
	if err != nil {
		t.Fatal(err)
	}
	bound, ok := headerBound(b)
	for _, v := range vals {
		if ok && encoding.Magnitude(v) > bound {
			t.Fatalf("width %d: row %d beyond header bound %d", b.Width, v, bound)
		}
	}
	if !ok {
		bound = math.MaxUint64
	}
	p := &plan{c1: c1, c2: c2}
	var one, ref pipeline.RangeScanner
	if err := one.Reset(b, from); err != nil {
		t.Fatal(err)
	}
	if err := ref.Reset(b, from); err != nil {
		t.Fatal(err)
	}
	got, want := start, start
	size := 0
	for _, n := range chunks {
		size = max(size, n)
	}
	buf, refBuf := make([]int64, size), make([]int64, size)
	for _, n := range chunks {
		last, err := p.scanFold(&one, n, bound, &got, buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		k, err := ref.Next(refBuf[:n])
		if err != nil || k != n {
			t.Fatalf("Next(%d): %d rows, %v", n, k, err)
		}
		want.foldRange(refBuf[:k], c1, c2, false)
		g, w := got, want
		g.min, g.max, w.min, w.max = 0, 0, 0, 0
		if last != refBuf[k-1] || !reflect.DeepEqual(one, ref) || g != w {
			t.Fatalf("width %d, rows [%d, %d) in chunks of %v, [%d, %d] from %+v: at row %d\none pass %+v last %d (row %d)\nNext+foldRange %+v last %d",
				b.Width, from, b.Count, chunks, c1, c2, start, ref.Row(), got, last, one.Row(), want, refBuf[k-1])
		}
	}
}

// foldStarts are running partials for the fold parity tests: empty, and
// sums within a few values of the int64 edges, where only the checked
// redo sets (or leaves clear) the overflow flag at the right row.
var foldStarts = []partialAgg{
	{},
	{sum: math.MaxInt64, count: 1, min: math.MaxInt64, max: math.MaxInt64, seen: true},
	{sum: math.MaxInt64 - 3, count: 7, min: -5, max: 1 << 61, seen: true},
	{sum: math.MinInt64, count: 1, min: math.MinInt64, max: math.MinInt64, seen: true},
	{sum: math.MinInt64 + 2, count: 3, min: math.MinInt64 + 2, max: 0, seen: true},
	{sum: 12, count: math.MaxInt64 - 2, min: 3, max: 4, seen: true},
	{sum: -1, count: 2, min: -1, max: 0, seen: true, overflow: true},
}

// TestScanFoldParity: the one pass must leave the scanner and the partial
// as Next + foldRange does, at every packing width 0..64, from start rows
// on and off the 64-field grid, in chunks on both sides of a group and of
// pruneChunk, under ranges that end at the int64 edges and straddle the
// page, and from running sums that make the page's bound fail per chunk.
func TestScanFoldParity(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for width := uint(0); width <= 64; width++ {
		for iter := 0; iter < 6; iter++ {
			n := 1 + r.Intn(3000)
			first := []int64{0, -1, 1 << 40, math.MaxInt64, math.MinInt64, r.Int63() - r.Int63()}[r.Intn(6)]
			vals := walkPage(n, first, width, r.Uint64())
			from := min(n, []int{0, 1, 2, 63, 64, 65, r.Intn(n + 1)}[r.Intn(7)])
			chunk := []int{1, 63, 64, 65, 1000, pruneChunk, 1500}[r.Intn(7)]
			pick := func() int64 {
				if r.Intn(3) == 0 {
					return []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}[r.Intn(7)]
				}
				return vals[r.Intn(n)]
			}
			c1, c2 := pick(), pick()
			if c1 > c2 {
				c1, c2 = c2, c1
			}
			if iter == 0 {
				c1, c2 = math.MinInt64, math.MaxInt64
			}
			checkScanFold(t, vals, from, chunk, c1, c2, foldStarts[r.Intn(len(foldStarts))])
		}
	}
	// The pruned scan's own geometry (gridChunk): chunks that end on the
	// 64-field grid and a last one that ends off it at the slice end,
	// starts in the middle of a group, widths at and inside the unpack
	// kernels' edges, one-row pages, and running sums (or a width-63
	// page, which has no header bound) that send chunks to the bound redo.
	g := rand.New(rand.NewSource(37))
	for _, width := range []uint{0, 1, 12, 32, 33, 63} {
		for _, n := range []int{1, 2, 64, 66, 1025, 2113, 3000} {
			for iter, start := range foldStarts {
				first := []int64{0, -1, 1 << 40, math.MaxInt64, math.MinInt64}[g.Intn(5)]
				vals := walkPage(n, first, width, g.Uint64())
				from := min(n, []int{0, 1, 37, 64 + 29, 960, g.Intn(n + 1)}[iter%6])
				to := n
				if iter%2 == 1 {
					to = from + g.Intn(n-from+1) // a slice that ends mid-page
				}
				c1, c2 := vals[g.Intn(n)], vals[g.Intn(n)]
				if c1 > c2 {
					c1, c2 = c2, c1
				}
				checkScanFoldChunks(t, vals, from, gridChunks(t, from, to), c1, c2, start)
			}
		}
	}
}

// gridChunks is the chunk sequence a one-segment scan takes over rows
// [from, to): every chunk holds 1..pruneChunk rows and ends on the
// 64-field grid (at a row ≡ 1 mod 64) or at to.
func gridChunks(t *testing.T, from, to int) []int {
	t.Helper()
	var chunks []int
	for row := from; row < to; {
		k := gridChunk(row, to)
		if end := row + k; k <= 0 || k > pruneChunk || (end != to && (end-1)&63 != 0) {
			t.Fatalf("gridChunk(%d, %d) = %d", row, to, k)
		}
		chunks = append(chunks, k)
		row += k
	}
	return chunks
}

// FuzzScanFold is TestScanFoldParity over fuzz-chosen pages. Input: a
// 10-byte header — first-value selector, width, little-endian uint16
// start row and chunk size, a range selector whose low two bits pick
// page rows or int64 edges for c1 and c2 by the next two bytes, and a
// start-partial index — then 3-byte groups, each adding up to 256 rows
// (1<<13 at most) and seeding the deltas.
func FuzzScanFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 12, 0, 0, 0xFF, 3, 0, 9, 40, 1, 7, 7, 255, 9, 9, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [10]byte
		copy(hdr[:], data)
		data = data[min(len(data), len(hdr)):]
		width := uint(hdr[1]) % 65
		seed := uint64(hdr[1])
		n := 1
		for ; len(data) >= 3 && n < 1<<13; data = data[3:] {
			n += int(data[2]) + 1
			seed = seed<<16 ^ uint64(data[0])<<8 ^ uint64(data[1])
		}
		first := [...]int64{0, math.MaxInt64, math.MinInt64, -1}[hdr[0]&3]
		vals := walkPage(min(n, 1<<13), first, width, seed)
		from := int(binary.LittleEndian.Uint16(hdr[2:])) % (len(vals) + 1)
		chunk := int(binary.LittleEndian.Uint16(hdr[4:]))%1500 + 1
		pick := func(sel, idx byte) int64 {
			if sel&1 == 0 {
				return vals[int(idx)%len(vals)]
			}
			return [...]int64{math.MinInt64, -1, 0, math.MaxInt64}[idx&3]
		}
		c1, c2 := pick(hdr[6], hdr[7]), pick(hdr[6]>>1, hdr[8])
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		checkScanFold(t, vals, from, chunk, c1, c2, foldStarts[int(hdr[9])%len(foldStarts)])
	})
}

// wavePage is a page of n rows oscillating around center whose deltas
// pack at exactly width bits (2..62), the shape of the decode_scan
// benchmark workload's pages: the second and third rows take the largest
// and smallest delta, and every row is drawn from the band that keeps
// all later deltas within them.
func wavePage(n int, center int64, width uint, seed uint64) []int64 {
	lo, hi := -(int64(1) << (width - 1)), int64(1)<<(width-1)-1
	vals := make([]int64, n)
	for i := range vals {
		seed = (seed + 1) * 0x9E3779B97F4A7C15
		vals[i] = center + lo/2 + int64((seed^seed>>29)%uint64(hi/2-lo/2+1))
	}
	if n >= 3 {
		vals[0] = center + lo/2 + 1
		vals[1] = vals[0] + hi
		vals[2] = vals[1] + lo
	}
	return vals
}

// BenchmarkScanFold times one chunk-by-chunk pass over a wave-width page
// both ways — the one pass, and Next + foldRange — at a selectivity
// branches mispredict on (half) and one they predict; then the one pass
// alone as the pruned scan runs it (gridChunk chunks, page bound
// merged) over wave pages at the decode_scan widths, under its two
// filter shapes: A > c about the page's centre, and a narrow band.
func BenchmarkScanFold(b *testing.B) {
	vals := walkPage(4096, 1<<20, 12, 1)
	blk, err := ts2diff.Encode(vals, ts2diff.Order1)
	if err != nil {
		b.Fatal(err)
	}
	bound, ok := headerBound(blk)
	if !ok {
		b.Fatal("no page bound")
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	buf := make([]int64, pruneChunk)
	for _, q := range []int{2, 20} {
		c1 := sorted[len(sorted)-len(sorted)/q]
		p := &plan{c1: c1, c2: math.MaxInt64}
		b.Run(fmt.Sprintf("onepass/sel=1:%d", q), func(b *testing.B) {
			var s pipeline.RangeScanner
			for i := 0; i < b.N; i++ {
				var acc partialAgg
				_ = s.Reset(blk, 0)
				for s.Row() < blk.Count {
					if _, err := p.scanFold(&s, min(pruneChunk, blk.Count-s.Row()), bound, &acc, buf); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Count), "ns/value")
		})
		b.Run(fmt.Sprintf("next+foldRange/sel=1:%d", q), func(b *testing.B) {
			var s pipeline.RangeScanner
			for i := 0; i < b.N; i++ {
				var acc partialAgg
				_ = s.Reset(blk, 0)
				for s.Row() < blk.Count {
					k, err := s.Next(buf)
					if err != nil {
						b.Fatal(err)
					}
					acc.foldRange(buf[:k], c1, math.MaxInt64, false)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Count), "ns/value")
		})
	}
	const center = 1 << 21
	for _, width := range []uint{4, 8, 12, 16, 20} {
		blk, err := ts2diff.Encode(wavePage(4096, center, width, uint64(width)), ts2diff.Order1)
		if err != nil {
			b.Fatal(err)
		}
		if blk.Width != width {
			b.Fatalf("wave page packs at width %d, want %d", blk.Width, width)
		}
		bound, ok := headerBound(blk)
		if !ok {
			b.Fatal("no page bound")
		}
		for _, f := range []struct {
			name   string
			c1, c2 int64
		}{{"gt", center + 1, math.MaxInt64}, {"band", center, center + 44}} {
			p := &plan{c1: f.c1, c2: f.c2}
			b.Run(fmt.Sprintf("wave/w%02d/%s", width, f.name), func(b *testing.B) {
				var s pipeline.RangeScanner
				for i := 0; i < b.N; i++ {
					var acc partialAgg
					_ = s.Reset(blk, 0)
					for row := 0; row < blk.Count; row = s.Row() {
						if _, err := p.scanFold(&s, gridChunk(row, blk.Count), bound, &acc, buf); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Count), "ns/value")
			})
		}
	}
}

// TestFoldOverflowByQuery: queries whose answer turns on the order the
// selected values are added in, so only the checked redo behind the
// chunk fold gets it right, in every mode, whole pages and forced
// slices. In the first series a prefix of the selected values leaves
// int64 and the rest brings the total back: the wrapped chunk sum is a
// perfectly plausible number, and SUM must still be the Section VI-C
// error while COUNT and MIN answer. In the second the values alternate
// in sign at the same magnitude: the chunk's magnitude bound cannot
// rule overflow out, the redo finds none, and SUM must be exact.
func TestFoldOverflowByQuery(t *testing.T) {
	const n, big = 3000, int64(1) << 61
	ts := make([]int64, n)
	wraps, alternates := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 100
		switch {
		case i < 4:
			wraps[i] = big // the fourth makes the running sum 2^63
		case i < 8:
			wraps[i] = -big
		default:
			wraps[i] = int64(i % 7) // 0 is filtered out below
		}
		alternates[i] = big - int64(i%5)
		if i%2 == 1 {
			alternates[i] = -alternates[i]
		}
	}
	var altSum, altCount int64
	for i := range ts {
		if alternates[i] >= -big {
			altSum += alternates[i] // never leaves int64: partial sums stay within ±2^61
			altCount++
		}
	}
	for _, mode := range allModes {
		for _, slices := range []int{0, 3} {
			name := fmt.Sprintf("%v/slices=%d", mode, slices)
			e := New(storeFor(t, mode, ts, wraps, 1024), mode)
			e.Workers, e.ForceSlices = 2, slices
			if _, err := e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A), MIN(A) FROM ts WHERE A >= %d AND A != 0", -big)); !errors.Is(err, ErrOverflow) {
				t.Errorf("%s: SUM over a prefix that leaves int64 (!= path): error %v, want ErrOverflow", name, err)
			}
			if _, err := e.ExecuteSQL("SELECT SUM(A), MIN(A) FROM ts WHERE A >= 1"); !errors.Is(err, ErrOverflow) {
				t.Errorf("%s: SUM over a prefix that leaves int64: error %v, want ErrOverflow", name, err)
			}
			res, err := e.ExecuteSQL(fmt.Sprintf("SELECT COUNT(A), MIN(A) FROM ts WHERE A >= %d", -big))
			if err != nil {
				t.Fatalf("%s: COUNT, MIN beside an overflowed sum: %v", name, err)
			}
			if got := res.Aggregates["MIN(A)"]; got != float64(-big) {
				t.Errorf("%s: MIN %v, want %d", name, got, -big)
			}

			e = New(storeFor(t, mode, ts, alternates, 1024), mode)
			e.Workers, e.ForceSlices = 2, slices
			res, err = e.ExecuteSQL(fmt.Sprintf("SELECT SUM(A), COUNT(A), MAX(A) FROM ts WHERE A >= %d", -big))
			if err != nil {
				t.Fatalf("%s: SUM of alternating ±2^61: %v", name, err)
			}
			if s, c := res.Aggregates["SUM(A)"], res.Aggregates["COUNT(A)"]; s != float64(altSum) || c != float64(altCount) {
				t.Errorf("%s: SUM %v COUNT %v, want %d and %d", name, s, c, altSum, altCount)
			}
		}
	}
}

// TestFoldVarianceWithFilter: VAR over a value range is the query shape
// whose chunk fold keeps Σv² (plan.needSq sends every chunk through
// addValue); every mode must return the correctly rounded variance of the
// selected values.
func TestFoldVarianceWithFilter(t *testing.T) {
	ts, vals := testData(9000, 31, true)
	const c1, c2 = 480, 530
	var kept []int64
	for _, v := range vals {
		if v >= c1 && v <= c2 {
			kept = append(kept, v)
		}
	}
	want, n := exactVar(kept), float64(len(kept))
	for _, mode := range allModes {
		e := New(storeFor(t, mode, ts, vals, 2048), mode)
		res, err := e.ExecuteSQL(fmt.Sprintf("SELECT VAR(A), COUNT(A) FROM ts WHERE A >= %d AND A <= %d", c1, c2))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Aggregates["VAR(A)"]; got != want || res.Aggregates["COUNT(A)"] != n {
			t.Errorf("%v: VAR %v COUNT %v, want %v and %v", mode, got, res.Aggregates["COUNT(A)"], want, n)
		}
	}
}

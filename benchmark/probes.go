package main

import (
	"bytes"
	"fmt"
	"time"

	"etsqp/internal/encoding"
	"etsqp/internal/encoding/rlbe"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/exec"
	"etsqp/internal/expr"
	"etsqp/internal/fusion"
	"etsqp/internal/pipeline"
	"etsqp/internal/prune"
	"etsqp/internal/simd"
	"etsqp/internal/storage"
	"etsqp/internal/transport"
)

// Probes are fixed-iteration timing loops around the public functions
// of one module each, on pages made by the workload generators. They
// give every layer its own number next to the end-to-end ones; they are
// the same on every workload, and run single-threaded.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// perUnit times f (one fixed batch of work covering units units) and
// returns the median nanoseconds per unit over p.reps repetitions,
// after one untimed repetition.
func (p *prober) perUnit(units int, f func()) float64 {
	f()
	times := make([]float64, p.reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = float64(time.Since(start))
	}
	return median(times) / float64(units)
}

type probeSet map[string]float64

// prober collects the probe results and the first failure; a probe
// whose call fails makes the run incorrect instead of reporting a time
// for broken work.
type prober struct {
	reps int // timed repetitions per probe; the median is reported
	out  probeSet
	err  error
}

func (p *prober) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

func runProbes(seed int64, reps int) (probeSet, error) {
	p := &prober{reps: reps, out: probeSet{}}
	p.simd(seed)
	p.pipeline(seed)
	p.fusion(seed)
	p.pruneAndExpr(seed)
	p.storage(seed)
	p.exec(seed)
	p.transport(seed)
	return p.out, p.err
}

func (p *prober) simd(seed int64) {
	r := newRNG(seed, 100)
	var in, idx simd.B32
	var gidx [32]int32
	window := make([]byte, 64)
	for i := range in {
		in[i] = byte(r.next())
		idx[i] = byte(r.intn(16))
		gidx[i] = int32(r.intn(64))
	}
	for i := range window {
		window[i] = byte(r.next())
	}
	v := simd.U32x8{1, 2, 3, 4, 5, 6, 7, 8}
	shift := simd.U32x8{1, 3, 5, 7, 9, 11, 13, 15}
	const n = 1 << 15
	p.out["simd.shuffle_epi8_ns"] = p.perUnit(n, func() {
		x := in
		for i := 0; i < n; i++ {
			x = simd.ShuffleEpi8(x, idx)
		}
		sink += uint64(x[0])
	})
	p.out["simd.prefix_sum32_ns"] = p.perUnit(n, func() {
		x := v
		for i := 0; i < n; i++ {
			x = simd.InclusivePrefixSum32(x)
		}
		sink += uint64(x[7])
	})
	p.out["simd.srlv32_ns"] = p.perUnit(n, func() {
		x := v
		for i := 0; i < n; i++ {
			x = simd.Srlv32(simd.Add32(x, v), shift)
		}
		sink += uint64(x[0])
	})
	p.out["simd.gather_bytes_ns"] = p.perUnit(n, func() {
		var x simd.B32
		for i := 0; i < n; i++ {
			gidx[0] = int32(x[1] & 63)
			x = simd.GatherBytes(window, &gidx)
		}
		sink += uint64(x[0])
	})
}

// waveBlock is one wave page of the given width as a ts2diff block.
func (p *prober) waveBlock(seed int64, width uint) *ts2diff.Block {
	vals := make([]int64, pageSize)
	wavePage(newRNG(seed, 200+uint64(width)), vals, width)
	blk, err := ts2diff.Encode(vals, ts2diff.Order1)
	p.check(err)
	return blk
}

func (p *prober) pipeline(seed int64) {
	const pages = 32 // decodes per timed batch
	out := make([]int64, pageSize)
	for _, w := range waveWidths {
		blk := p.waveBlock(seed, w)
		if p.err != nil {
			return
		}
		if blk.Width != w {
			p.check(fmt.Errorf("wave page packed to width %d, want %d", blk.Width, w))
		}
		vec := p.perUnit(pages*pageSize, func() {
			for i := 0; i < pages; i++ {
				p.check(pipeline.DecodeBlockInto(out, blk))
			}
			sink += uint64(out[1])
		})
		ref := p.perUnit(pages*pageSize, func() {
			for i := 0; i < pages; i++ {
				v, err := blk.Decode()
				p.check(err)
				sink += uint64(v[1])
			}
		})
		suffix := fmt.Sprintf(".w%02d", w)
		p.out["pipeline.decode_ns_per_value"+suffix] = vec
		p.out["pipeline.scalar_ref_ns_per_value"+suffix] = ref
		p.out["pipeline.vector_over_scalar"+suffix] = ratio(ref, vec)
	}
	blk := p.waveBlock(seed, 12)
	chunk := make([]int64, 1024)
	p.out["pipeline.scan_ns_per_value"] = p.perUnit(pages*pageSize, func() {
		for i := 0; i < pages; i++ {
			sc, err := pipeline.NewRangeScanner(blk, 0)
			p.check(err)
			for err == nil {
				var k int
				if k, err = sc.Next(chunk); k == 0 {
					break
				}
			}
			p.check(err)
		}
		sink += uint64(chunk[0])
	})
	p.out["pipeline.decode_range_ns_per_value"] = p.perUnit(pages*2000, func() {
		for i := 0; i < pages; i++ {
			v, err := pipeline.DecodeRange(blk, 1000, 3000)
			p.check(err)
			sink += uint64(v[0])
		}
	})
	p.out["pipeline.sum_packed_ns_per_value"] = p.perUnit(pages*blk.NumPacked(), func() {
		for i := 0; i < pages; i++ {
			s, err := pipeline.SumPacked(blk.Packed, blk.NumPacked(), blk.Width)
			p.check(err)
			sink += s
		}
	})
	r := newRNG(seed, 101)
	fib := make([]uint64, pageSize)
	for i := range fib {
		fib[i] = uint64(r.between(1, 1000))
	}
	buf, err := encoding.FibonacciEncodeAll(fib)
	p.check(err)
	p.out["pipeline.fib_unpack_ns_per_value"] = p.perUnit(pages*pageSize, func() {
		for i := 0; i < pages; i++ {
			v, err := pipeline.UnpackFibonacci(buf, len(fib))
			p.check(err)
			sink += v[0]
		}
	})
	for _, run := range []int{1, 64} {
		pairs := make([]encoding.DeltaRun, (pageSize-1)/run)
		for i := range pairs {
			pairs[i] = encoding.DeltaRun{Delta: r.between(-40, 40), Count: run}
		}
		dst := make([]int64, 1+len(pairs)*run)
		p.out[fmt.Sprintf("pipeline.flatten_ns_per_value.r%d", run)] = p.perUnit(pages*len(dst), func() {
			for i := 0; i < pages; i++ {
				sink += uint64(pipeline.FlattenInto(dst, 7, pairs))
			}
		})
	}
	p.out["pipeline.plan_cold_ns"] = p.perUnit(8, func() {
		for i := 0; i < 8; i++ {
			pipeline.ResetPlanCache()
			plan, err := pipeline.PlanFor(12)
			p.check(err)
			sink += uint64(plan.Nv)
		}
	})
}

func (p *prober) fusion(seed int64) {
	const pages = 32
	walk, err := ts2diff.Encode(walkValues(newRNG(seed, 110), pageSize), ts2diff.Order1)
	p.check(err)
	rl, err := rlbe.Encode(plateauValues(newRNG(seed, 111), pageSize))
	p.check(err)
	if p.err != nil {
		return
	}
	pairs, err := rl.Pairs()
	p.check(err)
	var cuts []int
	for c := 0; c < pageSize; c += windowRows {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, pageSize)
	sums := make([]int64, len(cuts)-1)
	p.out["fusion.sum_block_ns_per_value"] = p.perUnit(pages*pageSize, func() {
		for i := 0; i < pages; i++ {
			s, err := fusion.SumBlock(walk)
			p.check(err)
			sink += uint64(s)
		}
	})
	p.out["fusion.sum_block_segments_ns_per_value"] = p.perUnit(pages*pageSize, func() {
		for i := 0; i < pages; i++ {
			p.check(fusion.SumBlockSegments(walk, cuts, sums))
		}
		sink += uint64(sums[0])
	})
	p.out["fusion.sum_runs_ns_per_pair"] = p.perUnit(pages*len(pairs), func() {
		for i := 0; i < pages; i++ {
			s, err := fusion.Sum(rl.First, pairs)
			p.check(err)
			sink += uint64(s)
		}
	})
	p.out["fusion.variance_ns_per_pair"] = p.perUnit(pages*len(pairs), func() {
		for i := 0; i < pages; i++ {
			v, err := fusion.Variance(rl.First, pairs)
			p.check(err)
			sink += uint64(v)
		}
	})
	p.out["fusion.sum_range_segments_ns_per_pair"] = p.perUnit(pages*len(pairs), func() {
		for i := 0; i < pages; i++ {
			p.check(fusion.SumRangeSegments(rl.First, pairs, cuts, sums))
		}
		sink += uint64(sums[0])
	})
}

func (p *prober) pruneAndExpr(seed int64) {
	blk := p.waveBlock(seed, 8)
	if p.err != nil {
		return
	}
	const n = 1 << 15
	h := storage.PageHeader{MinValue: blk.MinValue, MaxValue: blk.MaxValue}
	p.out["prune.skip_page_ns"] = p.perUnit(n, func() {
		skipped := 0
		for i := 0; i < n; i++ {
			if prune.SkipPageByValue(h, blk.MaxValue+int64(i&1), 1<<40) {
				skipped++
			}
		}
		sink += uint64(skipped)
	})
	b := prune.BoundsFromBlock(blk)
	p.out["prune.stop_value_ns"] = p.perUnit(n, func() {
		stops := 0
		for i := 0; i < n; i++ {
			if b.StopValue(blk.MinValue, i&4095, pageSize, blk.MaxValue+int64(i), 1<<40) {
				stops++
			}
		}
		sink += uint64(stops)
	})

	const pages = 32
	col, err := blk.Decode()
	p.check(err)
	if p.err != nil {
		return
	}
	var mask *expr.Mask
	p.out["expr.range_mask_ns_per_value"] = p.perUnit(pages*pageSize, func() {
		for i := 0; i < pages; i++ {
			mask = expr.RangeMask(col, waveCenter, 1<<40)
		}
		sink += uint64(mask.Count())
	})
	p.out["expr.masked_sum_ns_per_value"] = p.perUnit(pages*pageSize, func() {
		for i := 0; i < pages; i++ {
			s, _ := expr.MaskedSum(col, mask)
			sink += uint64(s)
		}
	})
	// Two series that share every sixth timestamp.
	lt, rt := make([]int64, pageSize), make([]int64, pageSize)
	for i := range lt {
		lt[i], rt[i] = int64(2*i), int64(3*i)
	}
	p.out["expr.merge_by_time_ns_per_row"] = p.perUnit(4*2*pageSize, func() {
		for i := 0; i < 4; i++ {
			sink += uint64(len(expr.MergeByTime(lt, col, rt, col)))
		}
	})
	p.out["expr.natural_join_ns_per_row"] = p.perUnit(4*2*pageSize, func() {
		for i := 0; i < 4; i++ {
			l, _ := expr.NaturalJoin(lt, rt)
			sink += uint64(len(l))
		}
	})
}

func (p *prober) storage(seed int64) {
	const n = 8 * pageSize
	ts := jitteredTimes(newRNG(seed, 120), n)
	walk := walkValues(newRNG(seed, 121), n)
	opts := storage.Options{PageSize: pageSize}
	var pairs []storage.PagePair
	p.out["storage.encode_ns_per_value"] = p.perUnit(n, func() {
		var err error
		pairs, err = storage.EncodePages(ts, walk, opts)
		p.check(err)
	})
	if p.err != nil {
		return
	}
	p.out["storage.page_decode_ns_per_value"] = p.perUnit(n, func() {
		for _, pp := range pairs {
			v, err := pp.Value.Decode()
			p.check(err)
			sink += uint64(v[0])
		}
	})
	var kb float64
	for _, pp := range pairs {
		kb += float64(len(pp.Value.Data)) / 1024
	}
	p.out["storage.verify_checksum_ns_per_kb"] = p.perUnit(32, func() {
		for i := 0; i < 32; i++ {
			for _, pp := range pairs {
				p.check(pp.Value.VerifyChecksum())
			}
		}
	}) / kb
	// A series of 1024 small pages: the lookup cost depends on the page
	// count, not the page size.
	st := storage.NewStore()
	p.check(st.Append("idx", ts, walk, storage.Options{PageSize: n / 1024}))
	ser, _ := st.Series("idx")
	if p.err != nil || ser == nil {
		return
	}
	r := newRNG(seed, 122)
	const lookups = 1 << 12
	p.out["storage.pages_in_range_ns"] = p.perUnit(lookups, func() {
		for i := 0; i < lookups; i++ {
			lo := r.intn(n - 100)
			sink += uint64(len(ser.PagesInRange(ts[lo], ts[lo+64])))
		}
	})
	var wire []byte
	p.out["storage.marshal_pair_ns"] = p.perUnit(64*len(pairs), func() {
		for i := 0; i < 64; i++ {
			for _, pp := range pairs {
				wire = storage.MarshalPagePair(pp)
			}
		}
	})
	p.out["storage.unmarshal_pair_ns"] = p.perUnit(64*len(pairs), func() {
		for i := 0; i < 64*len(pairs); i++ {
			pp, err := storage.UnmarshalPagePair(wire)
			p.check(err)
			sink += uint64(pp.Count())
		}
	})
	// Space per codec: the walk for the two delta packers, the plateau
	// for the run-length coder (each on the data shape it is meant for).
	for codec, vals := range map[string][]int64{"ts2diff": walk, "sprintz": walk, "rlbe": plateauValues(newRNG(seed, 123), n)} {
		pp, err := storage.EncodePages(ts, vals, storage.Options{PageSize: pageSize, ValueCodec: codec})
		p.check(err)
		var bytes int
		for _, pair := range pp {
			bytes += len(pair.Value.Data)
		}
		p.out["storage.bytes_per_value."+codec] = float64(bytes) / n
	}
}

func (p *prober) exec(seed int64) {
	pool := exec.NewPool(0)
	defer pool.Close()
	nop := func(*exec.Worker, int) error { return nil }
	const n = 1 << 12
	p.out["exec.pool_dispatch_ns"] = p.perUnit(n, func() {
		for i := 0; i < n; i++ {
			p.check(pool.Run(1, 1, nop))
		}
	})
	p.out["exec.pool_ns_per_morsel"] = p.perUnit(64*512, func() {
		for i := 0; i < 64; i++ {
			p.check(pool.Run(512, pool.Size(), nop))
		}
	})
	// A cache that holds half the probe's pages, so Put also pays for
	// eviction the way a scan larger than the cache does.
	pages := make([]*storage.Page, 128)
	for i := range pages {
		pages[i] = &storage.Page{}
	}
	vals := make([]int64, pageSize)
	cache := exec.NewPageCache(int64(len(pages)/2) * pageSize * 8)
	p.out["exec.cache_put_ns"] = p.perUnit(8*len(pages), func() {
		for i := 0; i < 8; i++ {
			for _, pg := range pages {
				cache.Put("probe", pg, vals)
			}
		}
	})
	hot := pages[len(pages)-1]
	p.out["exec.cache_get_hit_ns"] = p.perUnit(n, func() {
		hits := 0
		for i := 0; i < n; i++ {
			if _, ok := cache.Get(hot); ok {
				hits++
			}
		}
		sink += uint64(hits)
	})
	// Invalidation as ingest triggers it: drop the series' entries, of
	// which the cache holds 64. Only the drop is timed.
	inval := make([]float64, p.reps)
	for i := range inval {
		for _, pg := range pages {
			cache.Put("probe", pg, vals)
		}
		start := time.Now()
		sink += uint64(cache.InvalidateSeries("probe"))
		inval[i] = float64(time.Since(start))
	}
	p.out["exec.cache_invalidate_ns"] = median(inval)
}

func (p *prober) transport(seed int64) {
	const n = 8 * ingestFlush
	ts := jitteredTimes(newRNG(seed, 130), n)
	vals := walkValues(newRNG(seed, 131), n)
	var wire bytes.Buffer
	p.out["transport.send_ns_per_point"] = p.perUnit(n, func() {
		wire.Reset()
		s := transport.NewSender(&wire, ingestFlush, storage.Options{})
		for i := range ts {
			p.check(s.Record("live", ts[i], vals[i]))
		}
		p.check(s.Close())
	})
	p.out["transport.wire_bytes_per_point"] = float64(wire.Len()) / n
	p.out["transport.receive_ns_per_point"] = p.perUnit(n, func() {
		got, err := transport.Receive(bytes.NewReader(wire.Bytes()), storage.NewStore())
		p.check(err)
		sink += uint64(got)
	})
}

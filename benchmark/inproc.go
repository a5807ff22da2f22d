package main

import (
	"time"

	"etsqp/internal/engine"
	"etsqp/internal/sqlparse"
)

// dataset is a workload's generated input: the series to load and the
// rotation of ops to run against them. An op is one full pass over a
// fixed query list (a dashboard refresh), so ops are homogeneous and a
// median op latency is well defined; constants and offsets differ
// between the ops of the rotation.
type dataset struct {
	cols []*column
	ops  [][]querySpec
}

func (d *dataset) column(name string) *column {
	for _, c := range d.cols {
		if c.name == name {
			return c
		}
	}
	return nil
}

// rotation is how many distinct ops a workload cycles through.
const rotation = 8

// decodeScanData: every wave page straddles the predicate constants,
// so nothing is pruned or fused and every value is unpacked, delta
// recovered and filtered. Both series have constant-interval
// timestamps and every query carries a value filter, so no decode goes
// through the page cache either: the filtered scan streams pages
// through pipeline.RangeScanner. (A cyclic scan cannot be made to miss
// instead: the cache's swap-remove clock keeps about cache/working-set
// of a scan resident, so a jittered twin or an unfiltered extrema query
// would be served from the cache in part and blur the reading.)
func decodeScanData(seed int64, div int) *dataset {
	n := scanRows / div
	ts := regularTimes(n)
	d := &dataset{cols: []*column{
		{name: "wave", codec: "ts2diff", ts: ts, vals: waveValues(newRNG(seed, 1), n, waveWidths)},
		{name: "wave_b", codec: "ts2diff", ts: ts, vals: waveValues(newRNG(seed, 2), n, waveWidths)},
	}}
	r := newRNG(seed, 3)
	for i := 0; i < rotation; i++ {
		c := waveCenter + r.between(-1, 1)
		d.ops = append(d.ops, []querySpec{
			{series: "wave", class: "filter", aggs: []string{"SUM"}, hasGT: true, gt: c},
			{series: "wave", class: "band", aggs: []string{"COUNT", "AVG"}, hasGT: true, gt: c - 1, hasLT: true, lt: waveCenter + r.between(30, 60)},
			{series: "wave_b", class: "filter_time", aggs: []string{"SUM"}, hasT1: true, t1: ts[r.intn(int64(n/50+1))], hasGT: true, gt: c},
		})
	}
	return d
}

// fusedAggData: unfiltered aggregates and tumbling windows over
// constant-interval series, answered on the encoded form. VAR is left
// out: the engine decodes for it at this commit, which would break the
// workload's one-mechanism reading.
func fusedAggData(seed int64, div int) *dataset {
	n := fusedRows / div
	d := &dataset{cols: []*column{
		{name: "plateau", codec: "rlbe", ts: regularTimes(n), vals: plateauValues(newRNG(seed, 1), n)},
		{name: "walk", codec: "ts2diff", ts: regularTimes(n), vals: walkValues(newRNG(seed, 2), n)},
	}}
	r := newRNG(seed, 3)
	width := int64(windowRows * timeStep)
	for i := 0; i < rotation; i++ {
		from := r.intn(int64(n/20+1)) * timeStep
		anchor := r.intn(windowRows) * timeStep
		d.ops = append(d.ops, []querySpec{
			{series: "plateau", class: "agg", aggs: []string{"SUM"}},
			{series: "plateau", class: "agg", aggs: []string{"AVG"}, hasT1: true, t1: from},
			{series: "walk", class: "agg", aggs: []string{"SUM"}, hasT1: true, t1: from},
			{series: "plateau", class: "window", aggs: []string{"SUM"}, winAnchor: anchor, winWidth: width},
			{series: "plateau", class: "window", aggs: []string{"AVG"}, winAnchor: anchor, winWidth: width},
			{series: "walk", class: "window", aggs: []string{"SUM"}, winAnchor: anchor, winWidth: width},
			{series: "walk", class: "window", aggs: []string{"AVG"}, winAnchor: anchor, winWidth: width},
		})
	}
	return d
}

// selectiveProbeData: many cheap queries. Time ranges touch a page or
// two; the value filters sit above the 99.9th percentile, so the page
// headers prune nearly everything. The timestamps are jittered, so the
// surviving pages' time columns are decoded - and, being few, served
// from the cache after the first op.
func selectiveProbeData(seed int64, div int) *dataset {
	n := probeRows / div
	c := &column{name: "trend", codec: "ts2diff", ts: jitteredTimes(newRNG(seed, 1), n), vals: trendValues(newRNG(seed, 2), n)}
	d := &dataset{cols: []*column{c}}
	r := newRNG(seed, 3)
	p999 := percentile(c.vals, 0.999)
	span := probeSpan
	if span > n/4 {
		span = n / 4
	}
	for i := 0; i < rotation; i++ {
		var op []querySpec
		for j := 0; j < rangeProbes; j++ {
			lo := int(r.intn(int64(n - span)))
			q := querySpec{series: "trend", class: "range", aggs: []string{"AVG"}, hasT1: true, t1: c.ts[lo], hasT2: true, t2: c.ts[lo+span-1]}
			if j%2 == 1 {
				q.aggs = []string{"MIN", "MAX"}
			}
			op = append(op, q)
		}
		for j := 0; j < valueProbes; j++ {
			op = append(op, querySpec{series: "trend", class: "filter", aggs: []string{"COUNT", "SUM"}, hasGT: true, gt: p999 + r.between(0, 40)})
		}
		d.ops = append(d.ops, op)
	}
	return d
}

// builtQuery is a query ready to run: its text, the oracle's answer and
// the rows its time range covers.
type builtQuery struct {
	class  string
	sql    string
	want   answer
	tuples int64
}

// buildOps renders every query of the rotation and computes its
// expected answer from the raw columns.
func buildOps(d *dataset) [][]builtQuery {
	out := make([][]builtQuery, len(d.ops))
	for i, op := range d.ops {
		for k := range op {
			q := &op[k]
			want, tuples := q.expect(d.column(q.series))
			out[i] = append(out[i], builtQuery{class: q.class, sql: q.sql(), want: want, tuples: tuples})
		}
	}
	return out
}

// phase is what one measured interval produced.
type phase struct {
	wall    time.Duration
	lat     []float64 // per op (in process) or per request from its due time (HTTP), ms
	queries int
	doneMs  []float64 // completion time of each lat entry since the phase began
	// Throughput samples: one per op in process (parallel to lat), one per
	// quietSliceMs slice of the closed loop over HTTP.
	queryRates []float64 // queries/s
	valueRates []float64 // values/s
	failed     int
	within     int                      // ops or requests answered correctly within the latency limit
	firstErr   string                   // first query error, for the report
	stats      map[string]*engine.Stats // Result.Stats summed per query class
}

func (p *phase) attempted() int { return len(p.lat) }

func (p *phase) classStats(class string) *engine.Stats {
	if p.stats == nil {
		p.stats = map[string]*engine.Stats{}
	}
	s := p.stats[class]
	if s == nil {
		s = &engine.Stats{}
		p.stats[class] = s
	}
	return s
}

// total sums the per-class stats.
func (p *phase) total() engine.Stats {
	var t engine.Stats
	for _, s := range p.stats {
		addStats(&t, s)
	}
	return t
}

func addStats(dst, s *engine.Stats) {
	dst.PagesTotal += s.PagesTotal
	dst.PagesPruned += s.PagesPruned
	dst.TuplesLoaded += s.TuplesLoaded
	dst.RowsPruned += s.RowsPruned
	dst.ValuesFused += s.ValuesFused
	dst.ValuesDecoded += s.ValuesDecoded
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
	dst.IONanos += s.IONanos
	dst.DecodeNanos += s.DecodeNanos
	dst.FilterNanos += s.FilterNanos
	dst.AggNanos += s.AggNanos
	dst.WindowNanos += s.WindowNanos
	dst.MergeNanos += s.MergeNanos
	dst.PruneNanos += s.PruneNanos
	dst.CPUNanos += s.CPUNanos
	dst.MorselsRun += s.MorselsRun
	dst.MorselsStolen += s.MorselsStolen
	if s.ArenaHighWater > dst.ArenaHighWater {
		dst.ArenaHighWater = s.ArenaHighWater
	}
}

func resultAnswer(res *engine.Result) answer {
	a := answer{aggs: res.Aggregates}
	for _, w := range res.Windows {
		a.wins = append(a.wins, winAnswer{value: w.Value, count: w.Count})
	}
	return a
}

// runOps drives one closed-loop client through the rotation for at
// least dur and at least minOps ops, checking every answer; an op with
// a query that errors or disagrees with the oracle is a failed op. With a
// tracer each op becomes a span tree op -> query -> {sqlparse.Parse,
// engine.Execute}; without one the client calls ExecuteSQL, which does
// the same two steps.
func runOps(eng *engine.Engine, ops [][]builtQuery, dur time.Duration, minOps int, limitMs float64, tr *tracer) phase {
	var p phase
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < minOps; i++ {
		op := ops[i%len(ops)]
		opStart := time.Now()
		opSpan := tr.begin("op", noSpan)
		ok := true
		var tuples int64
		for k := range op {
			q := &op[k]
			var res *engine.Result
			var err error
			if tr == nil {
				res, err = eng.ExecuteSQL(q.sql)
			} else {
				res, err = executeTraced(eng, q, tr, opSpan)
			}
			if err != nil {
				ok = false
				if p.firstErr == "" {
					p.firstErr = q.sql + ": " + err.Error()
				}
				continue
			}
			got := resultAnswer(res)
			if !q.want.matches(&got) {
				ok = false
			}
			p.queries++
			tuples += q.tuples
			addStats(p.classStats(q.class), &res.Stats)
		}
		tr.end(opSpan, int64(len(op)))
		l := ms(time.Since(opStart))
		p.lat = append(p.lat, l)
		p.doneMs = append(p.doneMs, ms(time.Since(start)))
		p.queryRates = append(p.queryRates, float64(len(op))/(l/1e3))
		p.valueRates = append(p.valueRates, float64(tuples)/(l/1e3))
		if !ok {
			p.failed++
		} else if l <= limitMs {
			p.within++
		}
	}
	p.wall = time.Since(start)
	return p
}

func executeTraced(eng *engine.Engine, q *builtQuery, tr *tracer, parent int32) (*engine.Result, error) {
	qs := tr.begin("query", parent)
	ps := tr.begin("sqlparse.Parse", qs)
	parsed, err := sqlparse.Parse(q.sql)
	tr.end(ps, int64(len(q.sql)))
	if err != nil {
		return nil, err
	}
	es := tr.begin("engine.Execute", qs)
	res, err := eng.Execute(parsed)
	tr.end(es, q.tuples)
	tr.end(qs, q.tuples)
	return res, err
}

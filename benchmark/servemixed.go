package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"etsqp/internal/engine"
	"etsqp/internal/obs"
	"etsqp/internal/serve"
	"etsqp/internal/storage"
	"etsqp/internal/transport"
)

// serveScale holds the serve_mixed sizes; the smoke test divides them.
type serveScale struct {
	rows, span, probe, lag, flush int
	ingestRate                    float64 // points/s
}

func newServeScale(div int) serveScale {
	s := serveScale{
		rows: liveRows / div, span: liveSpan / div, probe: probeSpan / div,
		lag: ingestLagRows / div, flush: ingestFlush / div, ingestRate: ingestRate / float64(div),
	}
	if s.flush < 16 {
		s.flush = 16
	}
	if s.probe < 16 {
		s.probe = 16
	}
	return s
}

// request is one pre-generated entry of the seeded request list: a
// class and the random parameters the class needs. The row range is
// resolved against the ingest frontier when the request is due.
type request struct {
	class  string
	offset int   // probe: start offset inside the span
	c      int64 // scan: value constant
}

// liveData generates the live series - the rows loaded at set-up plus
// every row the sender will stream in - and the request list.
func liveData(seed int64, sc serveScale, futureRows int) (*column, []request) {
	n := sc.rows + futureRows
	c := &column{name: "live", codec: "ts2diff", ts: jitteredTimes(newRNG(seed, 1), n), vals: waveValues(newRNG(seed, 2), n, []uint{10})}
	r := newRNG(seed, 3)
	reqs := make([]request, 4096)
	for i := range reqs {
		switch p := r.intn(100); {
		case p < mixProbe:
			reqs[i] = request{class: "probe", offset: int(r.intn(int64(sc.span - sc.probe + 1)))}
		case p < mixProbe+mixWindow:
			reqs[i] = request{class: "window"}
		default:
			reqs[i] = request{class: "scan", c: waveCenter + r.between(-100, 100)}
		}
	}
	return c, reqs
}

// spec resolves a request to a query over rows ending at row end
// (exclusive), which is behind the ingest frontier, so the answer is
// fully determined and checked exactly.
func (rq *request) spec(live *column, sc serveScale, end int) querySpec {
	lo := end - sc.span
	q := querySpec{series: "live", class: rq.class, hasT1: true, hasT2: true, t1: live.ts[lo], t2: live.ts[end-1]}
	switch rq.class {
	case "probe":
		q.aggs = []string{"SUM", "COUNT"}
		q.t1, q.t2 = live.ts[lo+rq.offset], live.ts[lo+rq.offset+sc.probe-1]
	case "window":
		q.aggs = []string{"AVG"}
		q.winAnchor, q.winWidth = q.t1, int64(sc.span/liveWindows)*timeStep
	default:
		q.aggs = []string{"COUNT"}
		q.hasGT, q.gt = true, rq.c
	}
	return q
}

// served is the system plus its network surface: the HTTP handler on a
// real listener and the transport ingest listener.
type served struct {
	*system
	live    *column
	sc      serveScale
	reqs    []request
	base    string // http://127.0.0.1:port
	ingest  string // ingest listener address
	httpSrv *http.Server
	ingestL net.Listener
	stopWin func()
	tr      atomic.Pointer[tracer] // set for the traced phases only
	bg      sync.WaitGroup
}

const spanHeader = "X-Bench-Span"

func newServed(seed int64, div int, futureRows int) (*served, error) {
	sc := newServeScale(div)
	live, reqs := liveData(seed, sc, futureRows)
	// History is loaded in full pages; the rows the requests can reach
	// (span + lag behind the frontier) are loaded in flush-sized pages, as
	// if the sender had delivered them before the run began. The page
	// geometry under the requests is then the same from the first second
	// to the last, and per-request work does not drift as ingest proceeds.
	recent := sc.rows - sc.span - sc.lag
	history := column{name: live.name, codec: live.codec, ts: live.ts[:recent], vals: live.vals[:recent]}
	tail := column{name: live.name, codec: live.codec, ts: live.ts[recent:sc.rows], vals: live.vals[recent:sc.rows], pageSize: sc.flush}
	sys, err := newSystem([]*column{&history, &tail})
	if err != nil {
		return nil, err
	}
	s := &served{system: sys, live: live, sc: sc, reqs: reqs}
	windows := obs.NewWindow(time.Second, 0)
	s.stopWin = windows.Start()
	srv := &serve.Server{
		Engine: sys.engine, Store: sys.store, Windows: windows,
		SlowThreshold: 100 * time.Millisecond, SlowLog: io.Discard, SlowMax: 1024, MaxRows: 20,
	}
	inner := srv.Handler()
	// The middleware is the serve.handler span of the traced run; with
	// no tracer installed it is one atomic load per request.
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		id := noSpan
		if tr != nil {
			if parent, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
				id = tr.begin("serve.handler", int32(parent))
			}
		}
		inner.ServeHTTP(w, r)
		tr.end(id, 0)
	})
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.ingestL, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		s.close()
		return nil, err
	}
	s.base, s.ingest = "http://"+hl.Addr().String(), s.ingestL.Addr().String()
	s.httpSrv = &http.Server{Handler: handler}
	s.bg.Add(2)
	go func() { defer s.bg.Done(); _ = s.httpSrv.Serve(hl) }()        // returns on Close
	go func() { defer s.bg.Done(); _ = srv.ServeIngest(s.ingestL) }() // returns on listener close
	return s, nil
}

func (s *served) close() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
		s.ingestL.Close()
		s.bg.Wait()
	}
	s.stopWin()
	s.system.close()
}

// ingester streams the future rows of live into the ingest listener at
// the frozen rate, on one connection, through transport.Sender.
type ingester struct {
	s      *served
	start  time.Time
	stop   chan struct{}
	done   sync.WaitGroup
	sent   atomic.Int64 // rows recorded so far, counted from sc.rows
	frames int
	failed int
	tr     *tracer
}

func (s *served) startIngest(tr *tracer) (*ingester, error) {
	conn, err := net.Dial("tcp", s.ingest)
	if err != nil {
		return nil, err
	}
	in := &ingester{s: s, start: time.Now(), stop: make(chan struct{}), tr: tr}
	in.done.Add(1)
	go in.run(conn)
	return in, nil
}

func (in *ingester) run(conn net.Conn) {
	defer in.done.Done()
	defer conn.Close()
	s := in.s
	sender := transport.NewSender(conn, s.sc.flush, storage.Options{})
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	next, future := s.sc.rows, len(s.live.ts)
	for {
		select {
		case <-in.stop:
			if err := sender.Close(); err != nil {
				in.failed++
			}
			return
		case <-tick.C:
		}
		target := s.sc.rows + int(time.Since(in.start).Seconds()*s.sc.ingestRate)
		if target > future {
			target = future
		}
		for ; next < target && in.failed == 0; next++ {
			flush := (next-s.sc.rows+1)%s.sc.flush == 0
			id := noSpan
			if flush {
				id = in.tr.begin("ingest.flush", noSpan)
			}
			if err := sender.Record("live", s.live.ts[next], s.live.vals[next]); err != nil {
				in.failed++
			}
			if flush {
				in.frames++
				in.tr.end(id, int64(s.sc.flush))
			}
		}
		in.sent.Store(int64(next - s.sc.rows))
	}
}

// frontier is the exclusive end row requests may address at time t:
// the scheduled ingest position minus the frozen lag.
func (in *ingester) frontier(t time.Time) int {
	s := in.s
	end := s.sc.rows - s.sc.lag + int(t.Sub(in.start).Seconds()*s.sc.ingestRate)
	if max := len(s.live.ts) - s.sc.lag; end > max {
		end = max
	}
	return end
}

// finish stops the sender, waits for the store to hold every row sent
// and checks the whole series once, exactly. It returns what the write
// side attempted - the frames shipped plus that final check - and how
// many of those failed.
func (in *ingester) finish() (attempted, failed int) {
	close(in.stop)
	in.done.Wait()
	s := in.s
	want := s.sc.rows + int(in.sent.Load())
	ser, _ := s.store.Series("live")
	for deadline := time.Now().Add(3 * time.Second); ser.NumPoints() < want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	attempted, failed = in.frames+1, in.failed
	all := *s.live
	all.ts, all.vals = s.live.ts[:want], s.live.vals[:want]
	q := querySpec{series: "live", aggs: []string{"COUNT", "SUM", "MIN", "MAX"}}
	expect, _ := q.expect(&all)
	res, err := s.engine.ExecuteSQL(q.sql())
	if err != nil {
		return attempted, failed + 1
	}
	if got := resultAnswer(res); !expect.matches(&got) {
		failed++
	}
	return attempted, failed
}

// reqRecord is one request as the client saw it; answers are parsed
// and checked against the oracle after the phase, off the clock.
type reqRecord struct {
	spec   querySpec
	body   string
	failed bool    // transport error or non-200
	latMs  float64 // from the due time (open loop) or the send time (closed loop)
	doneMs float64 // completion time since the phase began
	lateMs float64 // open loop: how late the generator dispatched it
}

type client struct {
	s    *served
	in   *ingester
	http *http.Client
	tr   *tracer
}

func (s *served) newClient(in *ingester, tr *tracer) *client {
	n := runtime.GOMAXPROCS(0)
	return &client{s: s, in: in, tr: tr, http: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends request i of the list with ranges resolved at time at, and
// records the outcome timed from at.
func (c *client) do(i int, at time.Time) reqRecord {
	rq := &c.s.reqs[i%len(c.s.reqs)]
	rec := reqRecord{spec: rq.spec(c.s.live, c.s.sc, c.in.frontier(at))}
	id := c.tr.begin("request", noSpan)
	req, err := http.NewRequest(http.MethodGet, c.s.base+"/query?q="+url.QueryEscape(rec.spec.sql()), nil)
	if err == nil {
		if id != noSpan {
			req.Header.Set(spanHeader, strconv.Itoa(int(id)))
		}
		var resp *http.Response
		if resp, err = c.http.Do(req); err == nil {
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			rec.body = string(body)
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
	}
	c.tr.end(id, 0)
	rec.failed = err != nil
	rec.latMs = ms(time.Since(at))
	return rec
}

// closedLoop runs nproc clients back to back for dur: saturation.
func (c *client) closedLoop(dur time.Duration) ([]reqRecord, time.Duration) {
	n := runtime.GOMAXPROCS(0)
	out := make([][]reqRecord, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < dur {
				rec := c.do(int(next.Add(1)), time.Now())
				rec.doneMs = ms(time.Since(start))
				out[w] = append(out[w], rec)
			}
		}(w)
	}
	wg.Wait()
	return flatten(out), time.Since(start)
}

// openLoop issues requests on a fixed schedule at rate per second for
// dur, whatever the server's pace: arrival k is due at start + k/rate,
// waits in the queue if both connections are busy, and is timed from
// its due time. Arrivals still queued two seconds after the schedule
// ends are recorded as failed instead of being sent.
func (c *client) openLoop(rate float64, dur time.Duration) ([]reqRecord, time.Duration) {
	n := runtime.GOMAXPROCS(0)
	total := int(rate * dur.Seconds())
	type job struct {
		i      int
		due    time.Time
		lateMs float64
	}
	queue := make(chan job, total) // holds the whole schedule: the generator never blocks on a slow server
	out := make([][]reqRecord, n)
	var wg sync.WaitGroup
	start := time.Now()
	giveUp := start.Add(dur + 2*time.Second)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range queue {
				var rec reqRecord
				if time.Now().After(giveUp) {
					rec = reqRecord{failed: true, latMs: ms(time.Since(j.due))}
				} else {
					rec = c.do(j.i, j.due)
				}
				rec.lateMs = j.lateMs
				rec.doneMs = ms(time.Since(start))
				out[w] = append(out[w], rec)
			}
		}(w)
	}
	for k := 0; k < total; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{i: k, due: due, lateMs: ms(time.Since(due))}
	}
	close(queue)
	wg.Wait()
	return flatten(out), time.Since(start)
}

func flatten(parts [][]reqRecord) []reqRecord {
	var all []reqRecord
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// scraper GETs /metrics once per metricsScrapeS, as a Prometheus
// server would, on its own connection.
type scraper struct {
	stop chan struct{}
	done sync.WaitGroup
	ms   []float64
}

func (s *served) startScraper() *scraper {
	sc := &scraper{stop: make(chan struct{})}
	sc.done.Add(1)
	go func() {
		defer sc.done.Done()
		cl := &http.Client{Timeout: 5 * time.Second}
		defer cl.CloseIdleConnections()
		t := time.NewTicker(time.Duration(metricsScrapeS * float64(time.Second)))
		defer t.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case <-t.C:
			}
			start := time.Now()
			resp, err := cl.Get(s.base + "/metrics")
			if err != nil {
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			resp.Body.Close()
			sc.ms = append(sc.ms, ms(time.Since(start)))
		}
	}()
	return sc
}

func (sc *scraper) finish() []float64 {
	close(sc.stop)
	sc.done.Wait()
	return sc.ms
}

// judge checks every record against the oracle and folds the records
// into a phase. Latencies are also split per request class, and the
// completions are counted per quietSliceMs slice (the closed loop's
// throughput samples).
func (s *served) judge(recs []reqRecord, wall time.Duration, limitMs float64) (phase, map[string][]float64) {
	p := phase{wall: wall}
	byClass := map[string][]float64{}
	sliceMs, slices := float64(quietSliceMs), int(ms(wall)/quietSliceMs) // whole slices only
	if slices == 0 {
		sliceMs, slices = ms(wall), 1 // a phase shorter than one slice is one slice
	}
	p.queryRates, p.valueRates = make([]float64, slices), make([]float64, slices)
	for i := range recs {
		r := &recs[i]
		p.lat = append(p.lat, r.latMs)
		byClass[r.spec.class] = append(byClass[r.spec.class], r.latMs)
		ok := !r.failed
		if ok {
			want, tuples := r.spec.expect(s.live)
			got, err := parseAnswer(r.body)
			ok = err == nil && want.matches(&got)
			p.queries++
			if k := int(r.doneMs / sliceMs); k < slices {
				p.queryRates[k] += 1e3 / sliceMs
				p.valueRates[k] += float64(tuples) * 1e3 / sliceMs
			}
		}
		if !ok {
			p.failed++
		} else if r.latMs <= limitMs {
			p.within++
		}
	}
	return p, byClass
}

// mixP50 is the p50_ms of serve_mixed: the per-class median latencies
// weighted by the frozen request mix. The plain median over all
// requests sits at the 83rd percentile of the probe class (60 % of
// requests are probes and faster than everything else), i.e. in its
// queueing tail, where a one-point change of the realised mix moved it
// by 14 % between identical runs; each class median repeats within 5 %.
func mixP50(byClass map[string][]float64) float64 {
	return (mixProbe*median(byClass["probe"]) + mixWindow*median(byClass["window"]) +
		(100-mixProbe-mixWindow)*median(byClass["scan"])) / 100
}

// mixSliceMs is the slice length quietMixP50 works in. A second holds
// about 50 scans, too few for a steady class median (the quietest
// second's mixP50 spread 11 % between seeds); three seconds hold 150.
const mixSliceMs = 3 * quietSliceMs

// quietMixP50 is mixP50 in the quietest stretch of the open loop: the
// lowest mixP50 over its whole mixSliceMs slices, or mixP50 of the
// phase if it is shorter than one slice.
func quietMixP50(recs []reqRecord, wallMs float64, whole map[string][]float64) float64 {
	slices := make([]map[string][]float64, int(wallMs/mixSliceMs))
	for i := range slices {
		slices[i] = map[string][]float64{}
	}
	for i := range recs {
		r := &recs[i]
		if k := int(r.doneMs / mixSliceMs); k < len(slices) && !r.failed {
			slices[k][r.spec.class] = append(slices[k][r.spec.class], r.latMs)
		}
	}
	best := mixP50(whole)
	for _, sl := range slices {
		if len(sl) < 3 {
			continue // a class is missing: not the frozen mix
		}
		if m := mixP50(sl); m < best {
			best = m
		}
	}
	return best
}

// maxOf returns the largest sample: the closed loop's busiest slice.
func maxOf(samples []float64) float64 {
	best := samples[0]
	for _, v := range samples[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// statsFromObs maps a registry delta onto engine.Stats, for the one
// workload whose queries run behind HTTP where Result.Stats is out of
// reach. The registry has no count of pages considered, so PagesTotal
// is pruned pages plus jobs run (a page split across workers counts
// once per slice), and it does not track arena sizes.
func statsFromObs(d obs.Snapshot, morselNs int64) engine.Stats {
	get := func(c interface{ Name() string }) int64 { return d[c.Name()] }
	pruned := get(obs.PrunePagesValue)
	return engine.Stats{
		PagesTotal: pruned + get(obs.EngineSlicesRun), PagesPruned: pruned,
		TuplesLoaded: get(obs.EngineTuplesLoaded), RowsPruned: get(obs.PruneRowsSkipped),
		ValuesFused: get(obs.EngineValuesFused), ValuesDecoded: get(obs.EngineValuesDecoded),
		CacheHits: get(obs.ExecCacheHits), CacheMisses: get(obs.ExecCacheMisses),
		IONanos: get(obs.EngineTimeIO), DecodeNanos: get(obs.EngineTimeDecode), FilterNanos: get(obs.EngineTimeFilter),
		AggNanos: get(obs.EngineTimeAgg), WindowNanos: get(obs.EngineTimeWindow), MergeNanos: get(obs.EngineTimeMerge),
		PruneNanos: get(obs.EngineTimePrune),
		CPUNanos:   morselNs, MorselsRun: get(obs.ExecMorsels), MorselsStolen: get(obs.ExecSteals),
	}
}

// replayOps turns a slice of the request list into in-process ops over
// the rows behind end, for the span and serial measurements HTTP hides.
func (s *served) replayOps(end int) [][]builtQuery {
	d := &dataset{cols: []*column{s.live}}
	for i := 0; i < rotation; i++ {
		var op []querySpec
		for k := 0; k < 16; k++ {
			op = append(op, s.reqs[(i*16+k)%len(s.reqs)].spec(s.live, s.sc, end))
		}
		d.ops = append(d.ops, op)
	}
	return buildOps(d)
}

// serveRun is a serve_mixed run after its lead-in: the system is up,
// the sender is streaming, /metrics is being scraped and the untraced
// warm-up has been judged.
type serveRun struct {
	cfg         config
	s           *served
	in          *ingester
	scr         *scraper
	plain       *client // untraced client
	tr          *tracer // nil in the untraced run
	st          *setups[*served]
	limit       float64
	bytesPerVal float64 // of live as loaded, before ingest adds to it
	warm        phase
	warmByClass map[string][]float64
}

func runServeMixed(cfg config, traced bool) (*result, error) {
	const name = "serve_mixed"
	sc := newServeScale(cfg.div)
	// Every row the sender can reach in the run, with slack for set-up
	// checks and slow machines.
	future := int((cfg.warmup + 2*cfg.seconds + 10) * sc.ingestRate)
	st := &setups[*served]{build: func() (*served, error) { return newServed(cfg.seed, cfg.div, future) }}
	s, err := st.run(cfg.setupsBefore(traced))
	if err != nil {
		return nil, err
	}
	defer s.close()
	run := &serveRun{cfg: cfg, s: s, st: st, limit: latencyLimitMs[name], bytesPerVal: s.bytesPerValue("live")}
	if traced {
		run.tr = newTracer(name)
	}
	if run.in, err = s.startIngest(run.tr); err != nil {
		return nil, err
	}
	run.scr = s.startScraper()
	run.plain = s.newClient(run.in, nil)
	defer run.plain.close()
	recs, wall := run.plain.closedLoop(time.Duration(cfg.warmup * float64(time.Second)))
	run.warm, run.warmByClass = s.judge(recs, wall, run.limit)
	if traced {
		return run.traced()
	}
	return run.untraced()
}

// finishIngest stops the write side and adds its frames and final
// whole-series check to the result.
func (run *serveRun) finishIngest(r *result) (frames, failed int) {
	frames, failed = run.in.finish()
	r.Attempted += frames
	r.Failed += failed
	return frames, failed
}

// untraced is the end-to-end run: closed loop at saturation for the
// rates, then the open loop at the frozen rate for the latencies.
func (run *serveRun) untraced() (*result, error) {
	s, cfg, limit := run.s, run.cfg, run.limit
	r := newResult(endToEnd)
	r.count(&run.warm)
	mem := startMemSampler()
	recsA, wallA := run.plain.closedLoop(cfg.dur(0.4))
	recsB, wallB := run.plain.openLoop(openLoopRate, cfg.dur(0.6))
	r.set("mem_peak_mb", mem.Stop())
	run.scr.finish()
	frames, _ := run.finishIngest(r)
	a, _ := s.judge(recsA, wallA, limit)
	b, byClass := s.judge(recsB, wallB, limit)
	r.count(&a)
	r.count(&b)
	setupS, err := run.st.finish(cfg)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS)
	r.set("values_per_s", maxOf(a.valueRates))
	r.set("queries_per_s", maxOf(a.queryRates))
	r.set("p50_ms", quietMixP50(recsB, ms(wallB), byClass))
	r.set("bytes_per_value", run.bytesPerVal)
	r.notef("closed loop: %d requests; open loop at %.0f/s over the whole phase: %d requests, p95 %.3f ms, p99 %.3f ms, within limit %.4f (informational); %d frames ingested",
		a.attempted(), openLoopRate, b.attempted(), quantile(b.lat, 0.95), quantile(b.lat, 0.99), ratio(float64(b.within), float64(b.attempted())), frames)
	for _, class := range []string{"probe", "window", "scan"} {
		r.notef("class %-6s p50 %.3f ms over %d requests", class, median(byClass[class]), len(byClass[class]))
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// traced is the per-layer run: a traced closed loop, the three
// open-loop rate steps, then an in-process replay of the request mix
// for the spans HTTP hides and the serial baseline.
func (run *serveRun) traced() (*result, error) {
	s, cfg, limit, tr := run.s, run.cfg, run.limit, run.tr
	r := newResult(perLayer)
	r.count(&run.warm)
	s.tr.Store(tr)
	cl := s.newClient(run.in, tr)
	defer cl.close()
	rt := startRuntimeDelta()
	obsBefore, morselBefore := obs.Capture(), obs.ExecHistMorsel.Sum()
	start := time.Now()
	recsA, wallA := cl.closedLoop(cfg.dur(0.25))
	a, aByClass := s.judge(recsA, wallA, limit)
	r.count(&a)
	queries := a.queries
	var maxRate float64
	for i, f := range maxRateFactors {
		rate := openLoopRate * f
		recs, wall := cl.openLoop(rate, cfg.dur(0.25))
		p, byClass := s.judge(recs, wall, limit)
		r.count(&p)
		queries += p.queries
		p95 := quantile(p.lat, 0.95)
		if p.failed == 0 && p95 <= limit {
			maxRate = rate
		}
		r.notef("open loop %.0f/s: %d requests, p50 %.3f ms, p95 %.3f ms, within limit %.4f", rate, p.attempted(), median(p.lat), p95, ratio(float64(p.within), float64(p.attempted())))
		if i > 0 {
			continue
		}
		// The frozen rate is the step the latency metrics describe.
		r.set("serve.probe_p50_ms", median(byClass["probe"]))
		r.set("serve.window_p50_ms", median(byClass["window"]))
		r.set("serve.scan_p50_ms", median(byClass["scan"]))
		r.set("within_limit_share", ratio(float64(p.within), float64(p.attempted())))
		r.set("serve.p95_ms", p95)
		r.set("serve.p99_ms", quantile(p.lat, 0.99))
		late := make([]float64, len(recs))
		for k := range recs {
			late[k] = recs[k].lateMs
		}
		r.set("serve.generator_late_p99_ms", quantile(late, 0.99))
	}
	wall := time.Since(start)
	rt.finish(r, queries)
	stats := statsFromObs(obs.Capture().Delta(obsBefore), obs.ExecHistMorsel.Sum()-morselBefore)
	s.tr.Store(nil)
	r.set("serve.metrics_scrape_ms", median(run.scr.finish()))
	end := run.in.frontier(time.Now())
	_, framesFailed := run.finishIngest(r)
	r.set("transport.frames_failed", float64(framesFailed))
	r.set("serve.max_rate_ok", maxRate)
	r.layerStats(&stats, wall)

	ops := s.replayOps(end)
	prune := runOps(s.engine, ops, 0, rotation, limit, tr)
	serial := runOps(s.serial, ops, 0, rotation, limit, nil)
	r.count(&prune)
	r.count(&serial)
	r.explainPass(s.engine, ops[0], tr)
	r.spanMetrics(tr)
	r.set("engine.speedup_vs_serial", ratio(median(serial.lat), median(prune.lat)))
	r.set("bench.traced_overhead_share", ratio(mixP50(aByClass), mixP50(run.warmByClass))-1)
	if err := r.finishTraced(tr, cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// Package exec is the shared execution layer: a process-wide worker
// pool that every concurrent query draws from, fed by morsel batches
// (one morsel = one page or slice) whose participants take the next
// unclaimed morsel from one shared counter, so a skewed page no longer
// gates query latency the way the paper's static core-level splits do
// (Section III-C). Each worker owns a reusable scratch arena (arena.go)
// and the layer fronts storage with a byte-budgeted decoded-page cache
// (cache.go), so hot pages decode once across the whole query stream.
//
// # Scheduling model
//
// A call to Pool.Run(n, par, fn) submits a batch of n morsels executed
// by at most par participants: the submitting goroutine itself plus up
// to par-1 pool workers. Every participant claims the next morsel index
// with one atomic add on the batch's claim counter until the counter
// passes n. No morsel is owned by a slot in advance, so a participant
// held up by a slow morsel holds up only that morsel: the others keep
// taking the rest. The steady-state scheduling cost is two atomic adds
// per morsel (claim and completion) and zero allocations (batches and submitter identities are
// recycled through freelists; enforced by AllocsPerRun tests).
//
// The submitter always participates, so Run makes progress even when
// every pool worker is busy with other batches — nested or heavily
// concurrent submission cannot deadlock, and par=1 runs entirely on the
// calling goroutine with no cross-goroutine traffic at all.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"etsqp/internal/obs"
)

// Worker is one executing participant: a pool worker goroutine or the
// goroutine that submitted the batch. Its Arena is scratch space owned
// exclusively by the participant for the duration of a morsel.
type Worker struct {
	// Slot is the participant's slot in the batch currently being
	// executed, in [0, par). Slots are assigned exactly once per batch,
	// so Slot-indexed state (per-slot partial aggregates) is
	// write-disjoint across participants.
	Slot int
	// Arena is the participant's private scratch space.
	Arena *Arena
}

// batch is one Run invocation: n morsels, par participant slots.
type batch struct {
	n   int
	par int
	fn  func(w *Worker, i int) error

	// Guarded by the POOL's mutex, not a field of this struct, which the
	// //etsqp:guardedby directive cannot express: helper slots remaining
	// and helpers that joined. Joining is only possible while the batch
	// is listed in Pool.active, so the joined count is final once the
	// submitter unlists the batch.
	slots  int
	joined int

	// qs, when non-nil, receives per-query resource attribution for this
	// batch. Set under the pool mutex before the batch is listed and read
	// by helpers that joined through that mutex, so the plain field is
	// ordered; cleared on recycle so the sink cannot outlive its query.
	qs *QueryStats

	next   atomic.Int64 //etsqp:atomic — morsel indices claimed so far; the next claim gets this one
	done   atomic.Int64 //etsqp:atomic — morsels completed (executed or skipped after failure)
	failed atomic.Bool  //etsqp:atomic

	errMu sync.Mutex
	err   error //etsqp:guardedby errMu

	// mu/cond wake the submitter when helpers finish; exited counts
	// helpers whose run loop returned.
	mu     sync.Mutex
	cond   *sync.Cond
	exited int //etsqp:guardedby mu
}

// Pool is a set of long-lived worker goroutines shared by all
// concurrent queries. The zero value is not usable; use NewPool or
// Default.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond // workers wait here for batches
	active []*batch   //etsqp:guardedby mu — batches that may still accept helpers
	closed bool       //etsqp:guardedby mu

	size      int            // immutable after NewPool
	freeBatch []*batch       //etsqp:guardedby mu
	freeSub   []*Worker      //etsqp:guardedby mu — recycled submitter identities
	wg        sync.WaitGroup // worker goroutines, for Close
}

// NewPool starts a pool with n worker goroutines (n<1 selects
// GOMAXPROCS). Call Close to stop the workers.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: n}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.workerLoop(&Worker{Arena: &Arena{}})
	}
	return p
}

// Size reports the number of pool worker goroutines.
func (p *Pool) Size() int { return p.size }

// Close stops the worker goroutines after the active batches drain.
// Run must not be called after Close.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// defaultPool is the process-wide pool, sized to GOMAXPROCS at first
// use. Engines fall back to it when no explicit pool is configured, so
// all concurrent queries in a process share one set of workers.
var (
	defaultPool *Pool
	defaultOnce sync.Once
)

// Default returns the process-wide shared pool.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// runLoop claims and executes morsels until none remain. After a morsel
// fails, remaining claims drain without executing fn so completion
// accounting stays exact. Per-morsel timing is shared between the obs
// histogram and the batch's QueryStats sink: the clock is read once and
// only when at least one consumer wants it, so the plain Run path with
// collection off still pays nothing.
//
//etsqp:hotpath
func (b *batch) runLoop(w *Worker) {
	for {
		i := int(b.next.Add(1) - 1)
		if i >= b.n {
			break
		}
		if !b.failed.Load() {
			if b.qs != nil || obs.Enabled() {
				start := time.Now()
				b.runOne(w, i)
				elapsed := int64(time.Since(start))
				if b.qs != nil {
					b.qs.cpuNanos.Add(elapsed)
				}
				if obs.Enabled() {
					obs.ExecHistMorsel.Observe(elapsed)
				}
			} else {
				b.runOne(w, i)
			}
		}
		b.done.Add(1)
	}
	if b.qs != nil {
		b.qs.noteArena(w.Arena.Bytes())
	}
}

// runOne executes one morsel, recording the first error.
func (b *batch) runOne(w *Worker, i int) {
	if err := b.fn(w, i); err != nil {
		b.errMu.Lock()
		if b.err == nil {
			b.err = err
		}
		b.errMu.Unlock()
		b.failed.Store(true)
	}
}

// firstErr returns the first error any morsel recorded.
func (b *batch) firstErr() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.err
}

// workerLoop is one pool worker: sleep until a batch needs helpers,
// reserve a slot, drain, repeat.
func (p *Pool) workerLoop(w *Worker) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		var b *batch
		for _, cand := range p.active {
			if cand.slots > 0 {
				cand.slots--
				cand.joined++
				w.Slot = cand.par - 1 - cand.slots
				b = cand
				break
			}
		}
		if b == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		p.mu.Unlock()
		b.runLoop(w)
		b.mu.Lock()
		b.exited++
		b.cond.Broadcast()
		b.mu.Unlock()
		p.mu.Lock()
	}
}

// Run executes fn(w, i) for every i in [0, n) using at most par
// participants: the calling goroutine plus up to par-1 pool workers.
// It returns the first error any morsel produced; once a morsel fails,
// unclaimed morsels are skipped. Run blocks until every claimed morsel
// has finished, so all writes made by fn happen-before Run returns.
func (p *Pool) Run(n, par int, fn func(w *Worker, i int) error) error {
	return p.RunWith(nil, n, par, fn)
}

// RunWith is Run with a per-query resource-attribution sink: when qs is
// non-nil the batch charges it per-morsel CPU nanoseconds, the morsel
// count, and the participants' arena high-water mark. A nil qs
// is exactly Run — the accounting is nil-gated like tracing, so the
// plain path pays one predicted branch per morsel and allocates
// nothing either way (the sink is caller-allocated).
func (p *Pool) RunWith(qs *QueryStats, n, par int, fn func(w *Worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if par < 1 {
		par = 1
	}
	if par > n {
		par = n
	}
	if par > p.size+1 {
		par = p.size + 1
	}

	p.mu.Lock()
	b := p.getBatchLocked(qs, n, par, fn)
	sub := p.getSubmitterLocked()
	if par > 1 {
		p.active = append(p.active, b)
		if obs.Enabled() {
			obs.ExecHistQueueDepth.Observe(int64(len(p.active)))
		}
	}
	p.mu.Unlock()
	if par > 1 {
		p.cond.Broadcast()
	}

	sub.Slot = 0
	b.runLoop(sub)

	joined := 0
	if par > 1 {
		p.mu.Lock()
		p.unlistLocked(b)
		joined = b.joined
		p.mu.Unlock()
	}
	b.mu.Lock()
	for b.done.Load() < int64(b.n) || b.exited < joined {
		b.cond.Wait()
	}
	b.mu.Unlock()

	err := b.firstErr()
	if qs != nil {
		qs.morsels.Add(int64(n))
	}
	if obs.Enabled() {
		obs.ExecBatches.Inc()
		obs.ExecMorsels.Add(int64(n))
	}
	p.mu.Lock()
	p.putBatchLocked(b)
	p.freeSub = append(p.freeSub, sub)
	p.mu.Unlock()
	return err
}

// getBatchLocked recycles (or builds) a batch for n morsels. A
// recycled batch is quiescent — Run waited for every participant — but
// exited and err live under the batch's own mutexes, so their resets
// take those (uncontended) locks rather than racing by fiat.
//
//etsqp:locked mu
func (p *Pool) getBatchLocked(qs *QueryStats, n, par int, fn func(w *Worker, i int) error) *batch {
	var b *batch
	if k := len(p.freeBatch); k > 0 {
		b = p.freeBatch[k-1]
		p.freeBatch = p.freeBatch[:k-1]
	} else {
		b = &batch{}
		b.cond = sync.NewCond(&b.mu)
	}
	b.n, b.par, b.fn = n, par, fn
	b.qs = qs
	b.slots, b.joined = par-1, 0
	b.mu.Lock()
	b.exited = 0
	b.mu.Unlock()
	b.next.Store(0)
	b.done.Store(0)
	b.failed.Store(false)
	b.errMu.Lock()
	b.err = nil
	b.errMu.Unlock()
	return b
}

// putBatchLocked recycles a finished batch, dropping the fn reference
// so the caller's closure (and anything it captures) can be collected.
//
//etsqp:locked mu
func (p *Pool) putBatchLocked(b *batch) {
	b.fn = nil
	b.qs = nil
	p.freeBatch = append(p.freeBatch, b)
}

// getSubmitterLocked recycles (or mints) a Worker identity for the
// submitting goroutine, so the submitter has an arena like any worker.
//
//etsqp:locked mu
func (p *Pool) getSubmitterLocked() *Worker {
	if k := len(p.freeSub); k > 0 {
		w := p.freeSub[k-1]
		p.freeSub = p.freeSub[:k-1]
		return w
	}
	return &Worker{Arena: &Arena{}}
}

// unlistLocked removes the batch from the active list, preserving
// order, without allocating.
//
//etsqp:locked mu
func (p *Pool) unlistLocked(b *batch) {
	for i, cand := range p.active {
		if cand == b {
			copy(p.active[i:], p.active[i+1:])
			p.active[len(p.active)-1] = nil
			p.active = p.active[:len(p.active)-1]
			return
		}
	}
}

package exec

import "sync/atomic"

// QueryStats is a per-query resource-attribution sink threaded through
// Pool.RunWith: every batch a query submits accumulates worker CPU
// nanoseconds (summed per-morsel wall time across participants), the
// morsel count, and the arena high-water mark of the participants
// that ran its morsels. The struct is pre-allocated by the caller (the
// engine embeds one per-query collector by value) and every update is a
// plain atomic add or CAS-max, so the accounting path performs zero
// allocations and stays nil-gated like tracing: Run(...) is exactly
// RunWith(nil, ...) and pays only a nil check per morsel.
type QueryStats struct {
	cpuNanos  atomic.Int64 //etsqp:atomic
	morsels   atomic.Int64 //etsqp:atomic
	arenaHigh atomic.Int64 //etsqp:atomic
}

// noteArena raises the arena high-water mark to b if larger.
func (q *QueryStats) noteArena(b int64) {
	for {
		cur := q.arenaHigh.Load()
		if b <= cur || q.arenaHigh.CompareAndSwap(cur, b) {
			return
		}
	}
}

// CPUNanos returns the summed per-morsel wall time across participants.
// On parallel batches it exceeds the query's wall time by design — it
// is the CPU the query consumed, not its latency.
func (q *QueryStats) CPUNanos() int64 { return q.cpuNanos.Load() }

// Morsels returns how many morsels ran on the query's behalf.
func (q *QueryStats) Morsels() int64 { return q.morsels.Load() }

// ArenaHighWater returns the largest scratch-arena footprint (bytes)
// any participant held while running the query's morsels.
func (q *QueryStats) ArenaHighWater() int64 { return q.arenaHigh.Load() }

// Reset zeroes the sink for reuse.
func (q *QueryStats) Reset() {
	q.cpuNanos.Store(0)
	q.morsels.Store(0)
	q.arenaHigh.Store(0)
}

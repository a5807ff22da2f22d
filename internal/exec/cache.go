package exec

import (
	"sync"

	"etsqp/internal/obs"
	"etsqp/internal/storage"
)

// PageCache is a byte-budgeted cache of fully decoded page columns,
// shared by every query on the store. Pages are immutable once
// published (storage only ever appends new pages or swaps in freshly
// built ones), so the page pointer is the identity of (series, page,
// column) — a series' time and value columns are distinct *Page values
// — and a cached decode can never go stale in place. Entries carry
// their series name so ingest mutations (Append/AppendPages/Compact,
// via Store.OnMutate) can drop a series' entries; for Compact that
// reclaims budget from pages that no longer exist, for appends it is
// hygiene only.
//
// Eviction is clock (second-chance): a hit sets the entry's reference
// bit; the sweep clears set bits and evicts the first clear entry, so
// hot pages survive scans of cold ones on a single byte budget.
//
// The returned slices are shared and MUST be treated as read-only by
// callers.
type PageCache struct {
	mu      sync.Mutex
	budget  int64                         // immutable after NewPageCache
	used    int64                         //etsqp:guardedby mu
	entries map[*storage.Page]*cacheEntry //etsqp:guardedby mu
	ring    []*cacheEntry                 //etsqp:guardedby mu
	hand    int                           //etsqp:guardedby mu
}

type cacheEntry struct {
	page   *storage.Page
	series string
	vals   []int64
	bytes  int64
	ref    bool
}

// NewPageCache builds a cache holding at most budget bytes of decoded
// values (8 bytes per value; entry bookkeeping is not charged).
func NewPageCache(budget int64) *PageCache {
	return &PageCache{
		budget:  budget,
		entries: make(map[*storage.Page]*cacheEntry),
	}
}

// Get returns the cached decode of a page column. The slice is shared:
// callers must not write through it. Steady-state hits are
// allocation-free.
//
//etsqp:hotpath
func (c *PageCache) Get(p *storage.Page) ([]int64, bool) {
	// The entry is read under the lock that publishes it. Its values
	// array is immutable, so holding the slice past a concurrent
	// eviction is safe.
	var vals []int64
	c.mu.Lock()
	e, ok := c.entries[p]
	if ok {
		e.ref = true
		vals = e.vals
	}
	c.mu.Unlock()
	if obs.Enabled() {
		if ok {
			obs.ExecCacheHits.Inc()
		} else {
			obs.ExecCacheMisses.Inc()
		}
	}
	return vals, ok
}

// Put inserts a fully decoded page column, evicting colder entries
// until the budget holds. Values larger than the whole budget are not
// cached. The cache takes ownership of vals: the caller must not write
// to it afterwards.
//
// A decode racing with Compact can Put a page that InvalidateSeries
// just dropped (decode old page, Compact swaps pages, invalidate runs,
// Put admits the dead page). The entry's content stays correct (pages
// are immutable) but it is unreachable for future queries; it occupies
// budget only until the clock hand evicts it, so no epoch check is
// needed.
//
// Put only runs on a decode miss, which already allocated the column
// it admits; ring growth and entry bookkeeping are cold by the same
// amortization.
//
//etsqp:coldpath
func (c *PageCache) Put(series string, p *storage.Page, vals []int64) {
	bytes := int64(len(vals)) * 8
	if bytes > c.budget {
		return
	}
	c.mu.Lock()
	if _, ok := c.entries[p]; ok {
		c.mu.Unlock()
		return // raced with another decode of the same page
	}
	evictions, evictedBytes := c.evictForLocked(bytes)
	e := &cacheEntry{page: p, series: series, vals: vals, bytes: bytes}
	c.entries[p] = e
	c.ring = append(c.ring, e)
	c.used += bytes
	c.mu.Unlock()
	if obs.Enabled() {
		obs.ExecCacheInserts.Inc()
		obs.ExecCacheInsertBytes.Add(bytes)
		if evictions > 0 {
			obs.ExecCacheEvictions.Add(evictions)
			obs.ExecCacheEvictedBytes.Add(evictedBytes)
		}
	}
}

// InvalidateSeries drops every entry of the series and returns how many
// were dropped. Wired to Store.OnMutate so ingest keeps the cache
// consistent.
func (c *PageCache) InvalidateSeries(series string) int {
	c.mu.Lock()
	kept := c.ring[:0]
	dropped := 0
	for _, e := range c.ring {
		if e.series != series {
			kept = append(kept, e)
			continue
		}
		delete(c.entries, e.page)
		c.used -= e.bytes
		dropped++
	}
	for i := len(kept); i < len(c.ring); i++ {
		c.ring[i] = nil
	}
	c.ring = kept
	c.hand = 0
	c.mu.Unlock()
	if dropped > 0 && obs.Enabled() {
		obs.ExecCacheInvalidated.Add(int64(dropped))
	}
	return dropped
}

// Len reports the number of cached page columns.
func (c *PageCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// UsedBytes reports the decoded bytes currently held.
func (c *PageCache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// evictForLocked runs the clock hand until need bytes fit in budget.
//
//etsqp:locked mu
func (c *PageCache) evictForLocked(need int64) (evictions, evictedBytes int64) {
	for c.used+need > c.budget && len(c.ring) > 0 {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if e.ref {
			e.ref = false
			c.hand++
			continue
		}
		delete(c.entries, e.page)
		c.used -= e.bytes
		evictions++
		evictedBytes += e.bytes
		// Swap-remove at the hand; the clock order perturbation is
		// harmless (second chance only needs approximate recency).
		last := len(c.ring) - 1
		c.ring[c.hand] = c.ring[last]
		c.ring[last] = nil
		c.ring = c.ring[:last]
	}
	return evictions, evictedBytes
}

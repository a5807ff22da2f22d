package exec

import (
	"fmt"
	"sync"
	"testing"

	"etsqp/internal/storage"
)

func testPages(n int) []*storage.Page {
	out := make([]*storage.Page, n)
	for i := range out {
		out[i] = &storage.Page{Header: storage.PageHeader{Count: 16}}
	}
	return out
}

func vals(n int, seed int64) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = seed + int64(i)
	}
	return v
}

func TestCacheHitMiss(t *testing.T) {
	c := NewPageCache(1 << 20)
	pages := testPages(3)
	if _, ok := c.Get(pages[0]); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("s", pages[0], vals(16, 100))
	got, ok := c.Get(pages[0])
	if !ok {
		t.Fatal("miss after Put")
	}
	if got[0] != 100 || got[15] != 115 {
		t.Fatalf("cached values wrong: %v", got[:2])
	}
	if _, ok := c.Get(pages[1]); ok {
		t.Fatal("hit for a page never inserted")
	}
	if c.Len() != 1 || c.UsedBytes() != 16*8 {
		t.Fatalf("Len=%d Used=%d", c.Len(), c.UsedBytes())
	}
	// Double insert of the same page is a no-op.
	c.Put("s", pages[0], vals(16, 999))
	if got, _ := c.Get(pages[0]); got[0] != 100 {
		t.Fatal("duplicate Put replaced the entry")
	}
}

func TestCacheBudgetEviction(t *testing.T) {
	// Budget of 4 entries of 16 values each.
	c := NewPageCache(4 * 16 * 8)
	pages := testPages(6)
	for i, p := range pages[:4] {
		c.Put("s", p, vals(16, int64(i)*1000))
	}
	if c.Len() != 4 {
		t.Fatalf("Len=%d", c.Len())
	}
	// Touch pages[3] so its ref bit protects it from the sweep.
	if _, ok := c.Get(pages[3]); !ok {
		t.Fatal("expected hit")
	}
	// Two more inserts force two evictions.
	c.Put("s", pages[4], vals(16, 4000))
	c.Put("s", pages[5], vals(16, 5000))
	if c.Len() != 4 {
		t.Fatalf("after eviction Len=%d, want 4", c.Len())
	}
	if c.UsedBytes() != 4*16*8 {
		t.Fatalf("UsedBytes=%d", c.UsedBytes())
	}
	// The referenced page survived the sweep (second chance).
	if _, ok := c.Get(pages[3]); !ok {
		t.Fatal("referenced page was evicted")
	}
	// An entry larger than the whole budget is refused outright.
	c.Put("s", testPages(1)[0], vals(4*16+1, 0))
	if c.Len() != 4 {
		t.Fatal("over-budget value was admitted")
	}
}

func TestCacheInvalidateSeries(t *testing.T) {
	c := NewPageCache(1 << 20)
	a, b := testPages(3), testPages(2)
	for i, p := range a {
		c.Put("a", p, vals(16, int64(i)))
	}
	for i, p := range b {
		c.Put("b", p, vals(16, int64(i)))
	}
	if got := c.InvalidateSeries("a"); got != 3 {
		t.Fatalf("invalidated %d, want 3", got)
	}
	for _, p := range a {
		if _, ok := c.Get(p); ok {
			t.Fatal("invalidated entry still served")
		}
	}
	for _, p := range b {
		if _, ok := c.Get(p); !ok {
			t.Fatal("unrelated series was dropped")
		}
	}
	if c.Len() != 2 || c.UsedBytes() != 2*16*8 {
		t.Fatalf("Len=%d Used=%d", c.Len(), c.UsedBytes())
	}
	if got := c.InvalidateSeries("a"); got != 0 {
		t.Fatalf("second invalidation dropped %d", got)
	}
}

// TestCacheGetEvictionRace pins the Get path that must capture e.vals
// under the lock: with a tiny budget, entries are evicted and replaced
// by other pages' entries while readers are between the lookup and the
// return, so Get must hand back exactly the values published for its
// page, never nil on a hit and never another page's values (run it
// under -race).
func TestCacheGetEvictionRace(t *testing.T) {
	c := NewPageCache(2 * 16 * 8) // room for just two entries
	pages := testPages(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for i, p := range pages {
					v, ok := c.Get(p)
					if ok {
						if v == nil {
							panic("Get returned ok with nil values")
						}
						if v[0] != int64(i)*1000 {
							panic(fmt.Sprintf("page %d served values of another page: %d", i, v[0]))
						}
					} else {
						c.Put("s", p, vals(16, int64(i)*1000))
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestCacheConcurrent(t *testing.T) {
	c := NewPageCache(64 * 16 * 8)
	pages := testPages(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i, p := range pages {
					if v, ok := c.Get(p); ok {
						if v[0] != int64(i) {
							panic(fmt.Sprintf("page %d served %d", i, v[0]))
						}
						continue
					}
					c.Put(fmt.Sprintf("s%d", i%4), p, vals(16, int64(i)))
				}
				c.InvalidateSeries(fmt.Sprintf("s%d", g%4))
			}
		}(g)
	}
	wg.Wait()
	if used, budget := c.UsedBytes(), int64(64*16*8); used > budget {
		t.Fatalf("used %d exceeds budget %d", used, budget)
	}
}

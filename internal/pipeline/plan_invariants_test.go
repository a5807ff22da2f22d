package pipeline

import (
	"errors"
	"sync"
	"testing"
)

// TestPlanTableInvariants is the plan tables' consistency proof: every
// width the tables support must build an internally consistent
// plan (gather indices in window range, shifts below 32, masks and ramps
// exact), and every width past the table range must be rejected with
// ErrWidthRange.
func TestPlanTableInvariants(t *testing.T) {
	for w := uint(0); w <= 32; w++ {
		p, err := PlanFor(w)
		if err != nil {
			t.Fatalf("PlanFor(%d): %v", w, err)
		}
		if err := p.Check(); err != nil {
			t.Errorf("PlanFor(%d): inconsistent tables: %v", w, err)
		}
	}
	for w := uint(33); w <= 64; w++ {
		if _, err := PlanFor(w); !errors.Is(err, ErrWidthRange) {
			t.Errorf("PlanFor(%d): want ErrWidthRange, got %v", w, err)
		}
	}
}

// TestPlanForConcurrent gives the race detector the lock-free plan cache
// to chew on: goroutines released together miss on every width of a cold
// cache, and whichever plan each one is handed — its own build or a
// published one — must be complete.
func TestPlanForConcurrent(t *testing.T) {
	ResetPlanCache()
	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for w := uint(0); w <= 32; w++ {
				p, err := PlanFor(w)
				if err != nil {
					t.Errorf("PlanFor(%d): %v", w, err)
					continue
				}
				if p.Width != w {
					t.Errorf("PlanFor(%d) returned the width-%d plan", w, p.Width)
				}
				if err := p.Check(); err != nil {
					t.Errorf("PlanFor(%d): %v", w, err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

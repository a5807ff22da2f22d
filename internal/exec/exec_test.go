package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEveryMorselOnce checks that every index in [0, n) executes
// exactly once across a range of batch shapes.
func TestRunEveryMorselOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{1, 2, 3, 5, 16, 100, 1000} {
		for _, par := range []int{1, 2, 4, 8} {
			var hits = make([]atomic.Int64, n)
			err := p.Run(n, par, func(w *Worker, i int) error {
				hits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("Run(n=%d par=%d): %v", n, par, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("Run(n=%d par=%d): morsel %d executed %d times", n, par, i, got)
				}
			}
		}
	}
}

// TestRunSlotDisjoint checks the Worker.Slot contract: slots are in
// [0, par) and two concurrent participants never share a slot, so
// slot-indexed state is write-disjoint.
func TestRunSlotDisjoint(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	const n, par = 4000, 8
	// Each slot counts into its own cell without synchronization; the
	// race detector (CI -race job) fails this test if slots ever collide.
	counts := make([]int64, par)
	err := p.Run(n, par, func(w *Worker, i int) error {
		if w.Slot < 0 || w.Slot >= par {
			return fmt.Errorf("slot %d out of range [0,%d)", w.Slot, par)
		}
		counts[w.Slot]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("slot counts sum to %d, want %d", total, n)
	}
}

// TestRunError checks that the first morsel error is returned and that
// unclaimed morsels are skipped after a failure.
func TestRunError(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	boom := errors.New("boom")
	var ran atomic.Int64
	err := p.Run(1000, 3, func(w *Worker, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	// Index 0 is the batch's first claim, so most of the batch should
	// drain without executing. Allow generous slack for morsels already
	// claimed before failed was observed.
	if got := ran.Load(); got > 900 {
		t.Fatalf("ran %d morsels after early failure, expected most to be skipped", got)
	}
}

// TestRunSkew checks that a slow morsel gates only itself: morsel 0
// blocks until every other morsel has run, which happens only if the
// other participants take all of them while morsel 0 waits.
func TestRunSkew(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 64
	for _, par := range []int{2, 4} {
		var rest atomic.Int64
		release := make(chan struct{})
		err := p.Run(n, par, func(w *Worker, i int) error {
			if i == 0 {
				select {
				case <-release:
					return nil
				case <-time.After(10 * time.Second):
					return fmt.Errorf("morsel 0 waited 10s: %d of the other %d morsels ran", rest.Load(), n-1)
				}
			}
			if rest.Add(1) == n-1 {
				close(release)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
	}
}

// TestRunConcurrentBatches hammers one pool from many submitting
// goroutines, including nested submissions, to check that the
// submitter-participates design cannot deadlock and results stay exact.
func TestRunConcurrentBatches(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				var sum atomic.Int64
				err := p.Run(50, 4, func(w *Worker, i int) error {
					// Nested submission from inside a morsel.
					if i == 7 {
						var inner atomic.Int64
						if err := p.Run(10, 2, func(w *Worker, j int) error {
							inner.Add(1)
							return nil
						}); err != nil {
							return err
						}
						if inner.Load() != 10 {
							return fmt.Errorf("inner ran %d morsels", inner.Load())
						}
					}
					sum.Add(int64(i))
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
				if got := sum.Load(); got != 50*49/2 {
					errCh <- fmt.Errorf("sum = %d, want %d", got, 50*49/2)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestRunSerial checks par=1 runs entirely inline on the caller.
func TestRunSerial(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	order := make([]int, 0, 10)
	err := p.Run(10, 1, func(w *Worker, i int) error {
		if w.Slot != 0 {
			t.Errorf("serial run used slot %d", w.Slot)
		}
		order = append(order, i) // safe: single participant
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order[%d] = %d", i, got)
		}
	}
}

// TestRunParClamp checks par is clamped to n and to pool size + 1.
func TestRunParClamp(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	slots := make(map[int]bool)
	var mu sync.Mutex
	err := p.Run(100, 64, func(w *Worker, i int) error {
		mu.Lock()
		slots[w.Slot] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// par must have been clamped to size+1 = 3.
	for s := range slots {
		if s < 0 || s > 2 {
			t.Fatalf("slot %d outside clamped par", s)
		}
	}
	if err := p.Run(0, 4, func(w *Worker, i int) error { return errors.New("ran") }); err != nil {
		t.Fatalf("Run(0) = %v", err)
	}
}

// TestPoolClose checks Close drains workers and returns.
func TestPoolClose(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int64
	if err := p.Run(100, 4, func(w *Worker, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d", ran.Load())
	}
}

// TestArenaClasses checks class isolation and grow-only reuse.
func TestArenaClasses(t *testing.T) {
	a := &Arena{}
	ts := a.Int64(ClassPrune, 8)
	vs := a.Int64(ClassScratch, 8)
	for i := range ts {
		ts[i] = 100 + int64(i)
		vs[i] = 200 + int64(i)
	}
	if &ts[0] == &vs[0] {
		t.Fatal("different classes alias")
	}
	for i := range ts {
		if ts[i] != 100+int64(i) || vs[i] != 200+int64(i) {
			t.Fatal("class buffers overwrote each other")
		}
	}
	ts2 := a.Int64(ClassPrune, 4)
	if &ts2[0] != &ts[0] {
		t.Fatal("same-class re-borrow did not reuse the buffer")
	}
	big := a.Int64(ClassPrune, 1024)
	if len(big) != 1024 {
		t.Fatalf("grow returned len %d", len(big))
	}
	a.Reset()
	if a.bufs[ClassPrune] != nil {
		t.Fatal("Reset kept a buffer")
	}
}

// TestDefaultPool checks the process-wide singleton is stable.
func TestDefaultPool(t *testing.T) {
	p1, p2 := Default(), Default()
	if p1 != p2 {
		t.Fatal("Default returned distinct pools")
	}
	if p1.Size() < 1 {
		t.Fatalf("default pool size %d", p1.Size())
	}
	var n atomic.Int64
	if err := p1.Run(32, 4, func(w *Worker, i int) error {
		n.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 32 {
		t.Fatalf("ran %d", n.Load())
	}
}

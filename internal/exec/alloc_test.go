package exec

import (
	"sync/atomic"
	"testing"

	"etsqp/internal/storage"
)

// TestRunAllocs proves the scheduler itself is allocation-free at
// steady state: after a warm-up Run has grown the freelists and chunk
// arrays, further batches of the same shape allocate nothing.
func TestRunAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(w *Worker, i int) error {
		sink.Add(int64(i))
		return nil
	}
	// Warm-up: builds the batch, chunk array and submitter identity.
	for i := 0; i < 3; i++ {
		if err := p.Run(64, 4, fn); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(50, func() {
		if err := p.Run(64, 4, fn); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("steady-state Run allocates %.1f times per batch, want 0", got)
	}
}

// TestRunSerialAllocs covers the par=1 inline path.
func TestRunSerialAllocs(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var sink atomic.Int64
	fn := func(w *Worker, i int) error {
		sink.Add(1)
		return nil
	}
	if err := p.Run(16, 1, fn); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if err := p.Run(16, 1, fn); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("serial Run allocates %.1f times per batch, want 0", got)
	}
}

// TestCacheGetAllocs proves cache hits are allocation-free.
func TestCacheGetAllocs(t *testing.T) {
	c := NewPageCache(1 << 20)
	p := &storage.Page{Header: storage.PageHeader{Count: 8}}
	c.Put("s", p, make([]int64, 8))
	var n int64
	got := testing.AllocsPerRun(100, func() {
		v, ok := c.Get(p)
		if !ok {
			t.Fatal("miss")
		}
		n += v[0]
	})
	if got != 0 {
		t.Fatalf("cache hit allocates %.1f times, want 0", got)
	}
}

// TestArenaAllocs proves steady-state borrows are allocation-free once
// the class buffers have grown.
func TestArenaAllocs(t *testing.T) {
	a := &Arena{}
	a.Int64(ClassPrune, 4096)
	a.Int64(ClassClock, 4096)
	a.Sums(64)
	var n int64
	got := testing.AllocsPerRun(100, func() {
		ts := a.Int64(ClassPrune, 4096)
		vs := a.Int64(ClassClock, 1024)
		sums := a.Sums(64)
		v, _ := sums[0].Int64()
		n += ts[0] + vs[0] + v
	})
	if got != 0 {
		t.Fatalf("arena borrow allocates %.1f times, want 0", got)
	}
}

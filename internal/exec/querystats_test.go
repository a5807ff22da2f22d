package exec

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestRunWithQueryStats checks RunWith charges the caller's collector
// with the batch's morsel count, per-morsel CPU time and
// the participants' arena high-water mark.
func TestRunWithQueryStats(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int64
	fn := func(w *Worker, i int) error {
		w.Arena.Int64(ClassPrune, 512)
		if i == 0 {
			// Make at least one morsel take measurable wall time so the
			// CPU accumulator is provably nonzero.
			time.Sleep(200 * time.Microsecond)
		}
		ran.Add(1)
		return nil
	}
	var qs QueryStats
	if err := p.RunWith(&qs, 32, 4, fn); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 32 {
		t.Fatalf("ran %d morsels, want 32", got)
	}
	if got := qs.Morsels(); got != 32 {
		t.Errorf("Morsels() = %d, want 32", got)
	}
	if got := qs.CPUNanos(); got < int64(200*time.Microsecond) {
		t.Errorf("CPUNanos() = %d, want at least the slept 200µs", got)
	}
	// Every participant that ran a morsel borrowed at least 512 int64s.
	if got := qs.ArenaHighWater(); got < 512*8 {
		t.Errorf("ArenaHighWater() = %d bytes, want >= %d", got, 512*8)
	}

	// A second batch accumulates into the same collector.
	before := qs.Morsels()
	if err := p.RunWith(&qs, 8, 1, func(w *Worker, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := qs.Morsels(); got != before+8 {
		t.Errorf("Morsels() = %d after second batch, want %d", got, before+8)
	}

	qs.Reset()
	if qs.Morsels() != 0 || qs.CPUNanos() != 0 || qs.ArenaHighWater() != 0 {
		t.Errorf("Reset left residue: %+v", map[string]int64{
			"morsels": qs.Morsels(), "cpu": qs.CPUNanos(), "arena": qs.ArenaHighWater(),
		})
	}
}

// TestRunWithNilStats checks a nil collector is exactly Run: the batch
// executes and nothing is charged anywhere.
func TestRunWithNilStats(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	if err := p.RunWith(nil, 16, 2, func(w *Worker, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d morsels, want 16", got)
	}
}

// TestRunWithQueryStatsAllocs proves per-query accounting keeps the
// pool's zero-allocation steady state: charging a caller-allocated
// collector must cost no allocations, exactly like the plain Run path.
func TestRunWithQueryStatsAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(w *Worker, i int) error {
		sink.Add(1)
		return nil
	}
	var qs QueryStats
	// Warm-up: builds the batch, chunk array and submitter identity.
	for i := 0; i < 3; i++ {
		if err := p.RunWith(&qs, 64, 4, fn); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(50, func() {
		if err := p.RunWith(&qs, 64, 4, fn); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("steady-state RunWith allocates %.1f times per batch, want 0", got)
	}
}

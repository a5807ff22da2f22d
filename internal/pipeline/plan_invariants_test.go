package pipeline

import (
	"errors"
	"testing"
)

// TestPlanTableInvariants is the dynamic side of the plantable analyzer:
// every width the tables support must build an internally consistent
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

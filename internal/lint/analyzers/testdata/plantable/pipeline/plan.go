// Package pipeline mirrors the real plan-table API shape so the
// plantable fixture can exercise constant-width checks at PlanFor call
// sites and counted-loop lane bounds.
package pipeline

import "errors"

// ErrWidthRange mirrors the real pipeline's width validation error.
var ErrWidthRange = errors.New("pipeline: width out of range")

// Plan is a stand-in for the JIT unpack tables.
type Plan struct{ Width uint }

// PlanFor returns the plan for a packing width, or ErrWidthRange.
func PlanFor(width uint) (*Plan, error) {
	if width > 32 {
		return nil, ErrWidthRange
	}
	return &Plan{Width: width}, nil
}

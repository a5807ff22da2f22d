package exec

import "etsqp/internal/encoding"

// Scratch buffer classes. The arena keys buffers by a small fixed
// class, one per kind of borrow the engine makes: two borrows of
// different classes never alias, while re-borrowing the same class
// reuses (and may overwrite) the previous buffer of that class.
const (
	ClassPrune = iota // chunk buffers of the prune strategy's value scan
	ClassClock        // timestamps of a job's row clock, decoded up to its time stop
	numClasses
)

// Arena is a participant-owned scratch space: one grow-only int64
// buffer per class. Ownership follows the Worker — exactly one
// goroutine uses an arena at a time — so borrows need no
// synchronization and steady-state morsel execution performs zero
// allocations once the buffers have grown to the workload's page size.
// Beside the int64 classes it holds one Delta-Repeat run buffer, which
// RLBE pages are parsed into, and one buffer of exact sums, a fused
// job's per-segment sums.
type Arena struct {
	bufs [numClasses][]int64
	runs []encoding.DeltaRun
	sums []encoding.Int128
}

// Int64 borrows the class's buffer resized to n values, growing it
// when needed. The contents are unspecified; the borrow is valid until
// the same class is borrowed again.
func (a *Arena) Int64(class, n int) []int64 {
	b := a.bufs[class]
	if cap(b) < n {
		b = make([]int64, n)
		a.bufs[class] = b
	}
	return b[:n]
}

// Runs borrows the run buffer: the caller appends to (*Runs())[:0] and
// stores the result back, so the buffer keeps whatever it grew to. The
// borrow is valid until the next one.
func (a *Arena) Runs() *[]encoding.DeltaRun { return &a.runs }

// Sums borrows the sum buffer resized to n sums, growing it when
// needed. The contents are unspecified; the borrow is valid until the
// next one.
func (a *Arena) Sums(n int) []encoding.Int128 {
	if cap(a.sums) < n {
		a.sums = make([]encoding.Int128, n)
	}
	return a.sums[:n]
}

// Bytes reports the arena's current footprint: the summed capacity of
// every class buffer in bytes. Queries record it as their arena
// high-water mark via exec.QueryStats.
func (a *Arena) Bytes() int64 {
	var n int64
	for i := range a.bufs {
		n += int64(cap(a.bufs[i])) * 8
	}
	return n + int64(cap(a.runs)+cap(a.sums))*16 // a run and a sum are two 8-byte words each
}

// Reset drops every buffer, returning the memory to the collector.
func (a *Arena) Reset() {
	for i := range a.bufs {
		a.bufs[i] = nil
	}
	a.runs, a.sums = nil, nil
}

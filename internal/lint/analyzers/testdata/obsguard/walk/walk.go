// Package walk exercises obsguard rule 3: no obs metric update may run
// once per iteration of a loop in an //etsqp:hotpath function, in the
// loop body or in a module callee, with only obs.Enabled() guarding it.
package walk

import "fixture.test/obsguard/internal/obs"

// Scanner mirrors a decode cursor whose Next counted its rows on every
// call.
type Scanner struct{ row, count int }

// Next is the historical shape: a gated add per call, so a caller that
// loops over chunks pays one shared atomic per chunk.
//
//etsqp:hotpath
func (s *Scanner) Next(dst []int64) int {
	n := min(len(dst), s.count-s.row)
	if n <= 0 {
		return 0
	}
	s.row += n
	if obs.Enabled() {
		obs.Ops.Add(int64(n))
	}
	return n
}

// Quiet is Next after the fix: it counts nothing.
//
//etsqp:hotpath
func (s *Scanner) Quiet(dst []int64) int {
	n := min(len(dst), s.count-s.row)
	s.row += n
	return n
}

// note counts on every call through a helper, one call level down.
func note(n int) {
	if obs.Enabled() {
		obs.Ops.Add(int64(n))
	}
}

// Step counts through note on every call.
func (s *Scanner) Step(dst []int64) int {
	n := s.Quiet(dst)
	note(n)
	return n
}

// stop counts only when its data condition fires, as a value stop rule
// does once per scan.
func stop(last, limit int64) bool {
	if last > limit {
		if obs.Enabled() {
			obs.Ops.Inc()
		}
		return true
	}
	return false
}

// Walk is the historical fused walk: a loop over Next.
//
//etsqp:hotpath
func Walk(s *Scanner, chunk []int64) {
	for s.Next(chunk) > 0 { // want `Next updates an obs metric on every call, once per loop iteration in hot path Walk; count once outside the loop`
	}
}

// WalkChunks loops over Next in its body.
//
//etsqp:hotpath
func WalkChunks(s *Scanner, chunk []int64, rows int) {
	for row := 0; row < rows; {
		row += s.Next(chunk) // want `Next updates an obs metric on every call, once per loop iteration in hot path WalkChunks; count once outside the loop`
	}
}

// WalkStep reaches the per-call count two calls down.
//
//etsqp:hotpath
func WalkStep(s *Scanner, chunks [][]int64) {
	for _, c := range chunks {
		s.Step(c) // want `Step updates an obs metric on every call, once per loop iteration in hot path WalkStep; count once outside the loop`
	}
}

// CountEach adds per row behind the gate alone.
//
//etsqp:hotpath
func CountEach(vals []int64) int64 {
	var sum int64
	for _, v := range vals {
		sum += v
		if obs.Enabled() {
			obs.Ops.Inc() // want `obs metric update runs once per loop iteration in hot path CountEach; add the loop's total once after it`
		}
	}
	return sum
}

// WalkOnce is the fix: the loop calls a cursor that counts nothing and
// adds its rows once after it.
//
//etsqp:hotpath
func WalkOnce(s *Scanner, chunk []int64) {
	rows := 0
	for n := s.Quiet(chunk); n > 0; n = s.Quiet(chunk) {
		rows += n
	}
	if obs.Enabled() {
		obs.Ops.Add(int64(rows))
	}
}

// WalkUntil stops on a data condition whose count fires once; the
// per-row exit count is behind the same kind of condition.
//
//etsqp:hotpath
func WalkUntil(s *Scanner, chunk []int64, limit int64) {
	for s.Quiet(chunk) > 0 {
		if stop(chunk[0], limit) {
			return
		}
		if chunk[0] < 0 && obs.Enabled() {
			obs.Ops.Inc()
		}
	}
}

// WalkLater builds a closure per iteration without calling it there.
//
//etsqp:hotpath
func WalkLater(s *Scanner, chunks [][]int64) func() {
	var f func()
	for _, c := range chunks {
		f = func() { s.Next(c) }
	}
	return f
}

// Drain is no hot path: its per-chunk count is not this rule's concern.
func Drain(s *Scanner, chunk []int64) {
	for s.Next(chunk) > 0 {
	}
}

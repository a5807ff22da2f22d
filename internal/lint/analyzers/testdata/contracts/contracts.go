// Package contracts exercises the three etsqp-vet compiler contracts:
// each Bad* function violates the contract it is annotated with, each
// Good* function satisfies it.
package contracts

// SumIndexed gathers through an index slice, so the compiler cannot
// prove the loads in range: the retained check must be reported.
//
//etsqp:nobce
func SumIndexed(xs []int64, idx []int) int64 {
	var s int64
	for _, i := range idx {
		s += xs[i] // want `nobce function SumIndexed retains a bounds check \(Found IsInBounds\)`
	}
	return s
}

// SumDense iterates its own length, so every check is eliminated.
//
//etsqp:nobce
func SumDense(xs []int64) int64 {
	var s int64
	for i := 0; i < len(xs); i++ {
		s += xs[i]
	}
	return s
}

// NewCell returns a pointer into the heap: the allocation escapes.
//
//etsqp:noescape
func NewCell(n int) *int64 {
	x := new(int64) // want `noescape function NewCell: new\(int64\) escapes to heap`
	*x = int64(n)
	return x
}

// AddInPlace works entirely through its arguments; nothing escapes.
//
//etsqp:noescape
func AddInPlace(dst, src []int64) {
	n := len(dst)
	if n > len(src) {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
}

// Fib is self-recursive, which the inliner refuses.
//
//etsqp:inline
func Fib(n int) int { // want `inline function Fib: cannot inline Fib: recursive`
	if n < 2 {
		return n
	}
	return Fib(n-1) + Fib(n-2)
}

// Mid is a leaf helper well under the inlining budget.
//
//etsqp:inline
func Mid(a, b int64) int64 {
	return a + (b-a)/2
}

// Acc carries the method cases of the inline contract: the compiler
// records a method's fact at its receiver list, not at its name.
type Acc struct{ n int64 }

// Add is a method well under the inlining budget.
//
//etsqp:inline
func (a *Acc) Add(v int64) { a.n += v }

// Depth is a self-recursive method, which the inliner refuses.
//
//etsqp:inline
func (a *Acc) Depth(n int) int64 { // want `inline function Depth: cannot inline \(\*Acc\)\.Depth: recursive`
	if n < 1 {
		return a.n
	}
	return a.Depth(n-1) + 1
}

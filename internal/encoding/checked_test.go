package encoding

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestInt128AgainstBig folds int64 values and exact products into an
// Int128 and into a big.Int side by side, through the int64 edges and
// across the 2^64 and 2^63 word boundaries both ways, and requires the
// two to agree after every step, Int64's verdict included.
func TestInt128AgainstBig(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -1, 0, 1, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
	r := rand.New(rand.NewSource(47))
	pick := func() int64 {
		if r.Intn(2) == 0 {
			return edges[r.Intn(len(edges))]
		}
		return int64(r.Uint64()) >> r.Intn(64)
	}
	for iter := 0; iter < 2000; iter++ {
		var s Int128
		want := new(big.Int)
		for step := 0; step < 40; step++ {
			x := pick()
			switch r.Intn(3) {
			case 0:
				s = s.AddInt64(x)
				want.Add(want, big.NewInt(x))
			case 1:
				y := r.Uint64() >> (8 + r.Intn(56)) // 40 terms stay below 2^126
				s = s.AddMul(x, y)
				want.Add(want, new(big.Int).Mul(big.NewInt(x), new(big.Int).SetUint64(y)))
			default:
				var o Int128
				o = o.AddInt64(x)
				o = o.AddMul(pick(), 1<<40)
				s = s.Add(o)
				want.Add(want, o.Big())
			}
			if s.Big().Cmp(want) != 0 {
				t.Fatalf("iter %d step %d: Int128 %s, big %s", iter, step, s.Big(), want)
			}
			v, ok := s.Int64()
			if ok != want.IsInt64() || (ok && v != want.Int64()) {
				t.Fatalf("iter %d step %d: Int64() = %d, %v for %s", iter, step, v, ok, want)
			}
		}
	}
	// One product at the edges of both factors, up to -2^63·(2^64-1).
	for _, x := range edges {
		for _, y := range []uint64{0, 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64} {
			var s Int128
			s = s.AddMul(x, y)
			if want := new(big.Int).Mul(big.NewInt(x), new(big.Int).SetUint64(y)); s.Big().Cmp(want) != 0 {
				t.Fatalf("AddMul(%d, %d) = %s, want %s", x, y, s.Big(), want)
			}
		}
	}
	// A total that leaves int64 and comes back is judged once, at the end.
	var s Int128
	for _, v := range []int64{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64, 5} {
		s = s.AddInt64(v)
	}
	if v, ok := s.Int64(); !ok || v != 3 {
		t.Fatalf("leave and return: Int64() = %d, %v; want 3, true", v, ok)
	}
}

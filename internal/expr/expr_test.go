package expr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	m := NewMask(130)
	if m.Len() != 130 || m.Count() != 0 {
		t.Fatal("fresh mask not empty")
	}
	m.Set(0)
	m.Set(63)
	m.Set(64)
	m.Set(129)
	if m.Count() != 4 {
		t.Fatalf("count = %d", m.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !m.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if m.Get(1) || m.Get(128) {
		t.Fatal("unexpected bits set")
	}
}

func TestMaskNextSet(t *testing.T) {
	m := NewMask(200)
	m.Set(3)
	m.Set(64)
	m.Set(199)
	var got []int
	for i := m.NextSet(0); i >= 0; i = m.NextSet(i + 1) {
		got = append(got, i)
	}
	if !reflect.DeepEqual(got, []int{3, 64, 199}) {
		t.Fatalf("got %v", got)
	}
	if m.NextSet(200) != -1 {
		t.Fatal("past end must be -1")
	}
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		v, c int64
		want bool
	}{
		{OpLT, 1, 2, true}, {OpLT, 2, 2, false},
		{OpLE, 2, 2, true}, {OpLE, 3, 2, false},
		{OpGT, 3, 2, true}, {OpGT, 2, 2, false},
		{OpGE, 2, 2, true}, {OpGE, 1, 2, false},
		{OpEQ, 2, 2, true}, {OpEQ, 1, 2, false},
		{OpNE, 1, 2, true}, {OpNE, 2, 2, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.v, c.c); got != c.want {
			t.Errorf("%d %s %d = %v", c.v, c.op, c.c, got)
		}
	}
	if OpLT.String() != "<" || CmpOp(99).String() != "?" {
		t.Fatal("String() wrong")
	}
	if CmpOp(99).Eval(1, 1) {
		t.Fatal("unknown op must be false")
	}
}

func TestMaskedSumMinMax(t *testing.T) {
	col := []int64{10, -5, 30, 7, 100}
	m := NewMask(5)
	m.Set(1)
	m.Set(2)
	m.Set(4)
	sum, count := MaskedSum(col, m)
	if sum != 125 || count != 3 {
		t.Fatalf("sum=%d count=%d", sum, count)
	}
	if sum, count := MaskedSum(col, NewMask(5)); sum != 0 || count != 0 {
		t.Fatalf("empty mask: sum=%d count=%d", sum, count)
	}
}

func TestNaturalJoin(t *testing.T) {
	lt := []int64{1, 3, 5, 7, 9}
	rt := []int64{2, 3, 5, 8, 9, 11}
	l, r := NaturalJoin(lt, rt)
	if !reflect.DeepEqual(l, []int{1, 2, 4}) || !reflect.DeepEqual(r, []int{1, 2, 4}) {
		t.Fatalf("l=%v r=%v", l, r)
	}
}

func TestMergeByTime(t *testing.T) {
	lt := []int64{1, 3, 5}
	lv := []int64{10, 30, 50}
	rt := []int64{2, 3, 6}
	rv := []int64{-2, -3, -6}
	rows := MergeByTime(lt, lv, rt, rv)
	wantTimes := []int64{1, 2, 3, 5, 6}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Time != wantTimes[i] {
			t.Fatalf("row %d time %d", i, r.Time)
		}
	}
	if rows[0].Values[1] != NullValue || rows[2].Values[0] != 30 || rows[2].Values[1] != -3 {
		t.Fatalf("merged values wrong: %+v", rows)
	}
	// Time order invariant under random inputs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() ([]int64, []int64) {
			n := rng.Intn(50)
			ts := make([]int64, n)
			vs := make([]int64, n)
			cur := int64(0)
			for i := range ts {
				cur += rng.Int63n(10) + 1
				ts[i] = cur
				vs[i] = rng.Int63n(100)
			}
			return ts, vs
		}
		at, av := mk()
		bt, bv := mk()
		rows := MergeByTime(at, av, bt, bv)
		for i := 1; i < len(rows); i++ {
			if rows[i].Time <= rows[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSlidingWindows: with slide = width the windows tumble, each
// starting where the previous ended.
func TestSlidingWindows(t *testing.T) {
	ws, err := SlidingWindowsHop(0, 10, 10, 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("windows = %d", len(ws))
	}
	if ws[3].Start != 30 || ws[3].End != 40 || ws[3].Index != 3 {
		t.Fatalf("last window %+v", ws[3])
	}
	if _, err := SlidingWindowsHop(0, 0, 0, 100); err == nil {
		t.Fatal("zero width must fail")
	}
}

func TestSlidingWindowsHop(t *testing.T) {
	// Overlapping: width 10, slide 4 over [0, 11].
	ws, err := SlidingWindowsHop(0, 10, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("windows = %d", len(ws))
	}
	for k, w := range ws {
		if w.Index != k || w.Start != int64(4*k) || w.End != int64(4*k+10) {
			t.Fatalf("window %d = %+v", k, w)
		}
	}
	// Sampling with gaps: slide > width.
	ws, err = SlidingWindowsHop(100, 5, 20, 140)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[2].Start != 140 || ws[2].End != 145 {
		t.Fatalf("windows = %+v", ws)
	}
	// Empty range.
	if ws, err = SlidingWindowsHop(10, 5, 5, 9); err != nil || ws != nil {
		t.Fatalf("empty range: %v %v", ws, err)
	}
	// Guards.
	if _, err := SlidingWindowsHop(0, 10, 0, 100); err == nil {
		t.Fatal("zero slide must fail")
	}
	if _, err := SlidingWindowsHop(0, 10, 1, int64(MaxWindowInstances)+10); err == nil {
		t.Fatal("instance-count cap must trip")
	}
}

func TestRangeMaskMatchesScalar(t *testing.T) {
	f := func(seed int64, wide bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		col := make([]int64, n)
		for i := range col {
			if wide {
				col[i] = rng.Int63() - rng.Int63()
			} else {
				col[i] = rng.Int63n(2000) - 1000
			}
		}
		c1 := rng.Int63n(2000) - 1000
		c2 := c1 + rng.Int63n(1000)
		m := RangeMask(col, c1, c2)
		for i, v := range col {
			if m.Get(i) != (v >= c1 && v <= c2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeMaskWideBoundsFallBack(t *testing.T) {
	col := []int64{1 << 40, -(1 << 40), 5}
	m := RangeMask(col, -(1 << 50), 1<<50)
	if m.Count() != 3 {
		t.Fatalf("count = %d", m.Count())
	}
	// Bounds at the int32 extremes.
	m2 := RangeMask([]int64{0, -(1 << 31), 1<<31 - 1}, -(1 << 31), 1<<31-1)
	if m2.Count() != 3 {
		t.Fatalf("count = %d", m2.Count())
	}
}

func BenchmarkRangeMask(b *testing.B) {
	col := make([]int64, 65536)
	for i := range col {
		col[i] = int64(i % 4096)
	}
	b.SetBytes(int64(len(col) * 8))
	for i := 0; i < b.N; i++ {
		RangeMask(col, 1000, 3000)
	}
}

package rangecheck

// growLabelled doubles k on a labelled continue: that back edge carries
// the growth into the next iteration, so k is unbounded.
//
//etsqp:rangecheck
func growLabelled(n int) int64 {
	var k int64
grow:
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			k = k*2 + 1 // want `growLabelled: unchecked int64 multiplication` `growLabelled: unchecked int64 addition`
			continue grow
		}
	}
	return k
}

// fallBig sets x near the top of int64 in one clause and falls through
// into the clause that doubles it.
//
//etsqp:rangecheck
func fallBig(mode int) int64 {
	var x int64 = 1
	switch mode {
	case 0:
		x = 1 << 62
		fallthrough
	case 1:
		return x * 2 // want `fallBig: unchecked int64 multiplication`
	}
	return x
}

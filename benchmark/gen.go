package main

import "sort"

// rng is a splitmix64 generator owned by the benchmark, so the inputs
// a seed produces never change with the Go release or with the
// program's own dataset package.
type rng struct{ s uint64 }

// newRNG derives an independent stream from (seed, stream). Both are
// passed through the output mix before use: seeding the state with the
// raw seed would make seed+1 replay seed's sequence one step later.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)}
	r.s = r.next() + stream*0xd1b54a32d192ed03
	r.s = r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int64) int64 { return lo + r.intn(hi-lo+1) }

// column is one generated series: aligned raw columns the oracle reads
// and the store ingests.
type column struct {
	name     string
	codec    string // value codec
	pageSize int    // points per page; 0 = the frozen pageSize
	ts       []int64
	vals     []int64
}

// timeStep is the nominal sampling interval of every generated series.
const timeStep = 1000

// regularTimes are constant-interval timestamps: the time pages pack
// to width 0 and the engine positions rows by arithmetic.
func regularTimes(n int) []int64 {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * timeStep
	}
	return ts
}

// jitteredTimes are strictly increasing timestamps with per-row
// jitter, so every time page must be decoded to resolve a row range.
func jitteredTimes(r *rng, n int) []int64 {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i)*timeStep + r.intn(timeStep/2)
	}
	return ts
}

// waveWidths are the ts2diff packing widths the wave pages cycle
// through, in equal shares.
var waveWidths = []uint{4, 8, 12, 16, 20}

// waveCenter is the level every wave page oscillates around; the
// decode_scan predicates compare against constants next to it.
const waveCenter = 1 << 21

// wavePage fills one page with values oscillating around waveCenter
// whose first-order deltas need exactly width bits on every seed: the
// second and third rows pin the largest and smallest delta and land on
// the floor of the band [lo/2, hi/2] the other rows are drawn from, so
// the step to the fourth row, like every later one, is at most hi.
func wavePage(r *rng, dst []int64, width uint) {
	lo, hi := -(int64(1) << (width - 1)), int64(1)<<(width-1)-1
	for i := range dst {
		dst[i] = waveCenter + r.between(lo/2, hi/2)
	}
	if len(dst) >= 3 {
		dst[0] = waveCenter + lo/2 + 1
		dst[1] = dst[0] + hi
		dst[2] = dst[1] + lo
	}
}

// waveValues builds n values page by page, cycling the widths, so each
// page straddles waveCenter and neither header pruning nor the stop
// rules can skip a row.
func waveValues(r *rng, n int, widths []uint) []int64 {
	vals := make([]int64, n)
	for off, p := 0, 0; off < n; off, p = off+pageSize, p+1 {
		end := off + pageSize
		if end > n {
			end = n
		}
		wavePage(r, vals[off:end], widths[p%len(widths)])
	}
	return vals
}

// plateauValues is the repeat-heavy series: constant runs whose
// lengths are a seeded shuffle of 1..256, so every seed has the same
// number of runs and the encoded size barely moves with the seed.
func plateauValues(r *rng, n int) []int64 {
	vals := make([]int64, n)
	lens := make([]int, 256)
	v := int64(50_000)
	for i := 0; i < n; {
		for k := range lens {
			lens[k] = k + 1
		}
		for k := len(lens) - 1; k > 0; k-- {
			j := int(r.intn(int64(k + 1)))
			lens[k], lens[j] = lens[j], lens[k]
		}
		for _, l := range lens {
			v += r.between(-40, 40)
			for ; l > 0 && i < n; l, i = l-1, i+1 {
				vals[i] = v
			}
		}
	}
	return vals
}

// walkValues is a smooth random walk: small signed steps, ts2diff
// width 8.
func walkValues(r *rng, n int) []int64 {
	vals := make([]int64, n)
	v := int64(1_000_000)
	for i := range vals {
		v += r.between(-100, 100)
		vals[i] = v
	}
	return vals
}

// trendValues has strong value locality: three slow triangular swells
// plus small noise, so the rows above a high percentile sit in a few
// neighbouring pages and the page headers prune the rest.
func trendValues(r *rng, n int) []int64 {
	vals := make([]int64, n)
	period := int64(n) / 3
	if period < 2 {
		period = 2
	}
	for i := range vals {
		ph := int64(i) % period
		if ph > period/2 {
			ph = period - ph
		}
		vals[i] = ph*8 + r.between(-60, 60)
	}
	return vals
}

// percentile returns the q-quantile of a 1-in-16 sample of vals.
func percentile(vals []int64, q float64) int64 {
	var sample []int64
	for i := 0; i < len(vals); i += 16 {
		sample = append(sample, vals[i])
	}
	sort.Slice(sample, func(a, b int) bool { return sample[a] < sample[b] })
	return sample[int(q*float64(len(sample)-1))]
}

// Package kernel exercises obsguard rule 2: counter mutations in
// //etsqp:hotpath functions must sit behind an obs.Enabled() check.
package kernel

import "fixture.test/obsguard/internal/obs"

//etsqp:hotpath
func Sum(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	obs.Ops.Add(int64(len(vals))) // want `obs counter update in hot path Sum is not behind obs\.Enabled\(\)`
	return s
}

//etsqp:hotpath
func SumGated(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	if len(vals) > 0 && obs.Enabled() {
		obs.Ops.Add(int64(len(vals))) // gated: not flagged
	}
	return s
}

//etsqp:hotpath
func Hist(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	obs.Latency.Observe(s) // want `obs counter update in hot path Hist is not behind obs\.Enabled\(\)`
	return s
}

//etsqp:hotpath
func HistGated(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	if obs.Enabled() {
		obs.Latency.Observe(s) // gated: not flagged
	}
	return s
}

//etsqp:hotpath
func GaugeSet(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	obs.Goroutines.Set(s) // want `obs counter update in hot path GaugeSet is not behind obs\.Enabled\(\)`
	return s
}

//etsqp:hotpath
func GaugeSetGated(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	if obs.Enabled() {
		obs.Goroutines.Set(s) // gated: not flagged
	}
	return s
}

// Cold is not a hot path; ungated updates are fine (the helper itself
// carries the enable gate).
func Cold(vals []int64) {
	obs.Ops.Add(int64(len(vals)))
	obs.Latency.Observe(int64(len(vals)))
	obs.Goroutines.Set(int64(len(vals)))
}

package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation, as
// Python's statistics.quantiles(method="inclusive") does; vals need not
// be sorted and is left untouched.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// The speed metrics are read in the quietest second of a phase. On a
// shared host other tenants slow a run down in bursts: over twenty
// minutes of identical 15 s windows the median op latency spread 17 %
// (74-130 ms), while the median of each window's quietest second
// spread 3.7 %. Interference only ever adds time, so the quietest
// second is the estimate of what the program itself costs; tails are
// what within_limit_share and the informational p95/p99 are for, and
// those are taken over the whole phase.
const (
	quietSliceMs    = 1000 // slice length
	minSliceSamples = 5    // slices with fewer samples are not considered
)

// quietest groups vals by the quietSliceMs slice of the phase their
// completion time doneMs falls in, takes each whole slice's median and
// returns the best one: the lowest when lower is better, else the
// highest. A phase shorter than one slice reads its plain median.
func quietest(doneMs, vals []float64, wallMs float64, lowerIsBetter bool) float64 {
	slices := make([][]float64, int(wallMs/quietSliceMs))
	for i, d := range doneMs {
		if k := int(d / quietSliceMs); k < len(slices) {
			slices[k] = append(slices[k], vals[i])
		}
	}
	best, found := 0.0, false
	for _, sl := range slices {
		if len(sl) < minSliceSamples {
			continue
		}
		if m := median(sl); !found || (lowerIsBetter && m < best) || (!lowerIsBetter && m > best) {
			best, found = m, true
		}
	}
	if !found {
		return median(vals)
	}
	return best
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Runtime readings the harness needs, all from runtime/metrics so a
// sample never stops the world the way ReadMemStats does.
const (
	rmHeapLive   = "/gc/heap/live:bytes"
	rmStacks     = "/memory/classes/heap/stacks:bytes"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmAllocObjs  = "/gc/heap/allocs:objects"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

func readRuntime(names ...string) map[string]float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(names))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// memSampler samples the live Go heap (what the last collection found
// reachable) plus goroutine stacks every memSampleMs and reports the
// level nine tenths of the samples stay below. Live heap, not heap in
// use: the latter saw-tooths with the collector's pacing and is mostly
// garbage, which engine.alloc_bytes_per_query already reports. The
// 90th percentile, not the single maximum: the maximum is set by
// whichever transient buffers one mark phase happens to catch and
// varied 2.5x between identical runs, while the 90th percentile
// repeated within 3 %.
type memSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // bytes; read after Stop
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(memSampleMs * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				r := readRuntime(rmHeapLive, rmStacks)
				m.samples = append(m.samples, r[rmHeapLive]+r[rmStacks])
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the high-water level in MiB.
func (m *memSampler) Stop() float64 {
	close(m.stop)
	m.done.Wait()
	r := readRuntime(rmHeapLive, rmStacks)
	m.samples = append(m.samples, r[rmHeapLive]+r[rmStacks])
	return quantile(m.samples, 0.9) / (1 << 20)
}

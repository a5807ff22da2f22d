package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"etsqp/internal/encoding/ts2diff"
)

// benchmarkFile mirrors the keys of BENCHMARK.json the test compares
// with spec.go.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and spec.go one
// definition: same workloads, same metrics, same units, directions and
// bounds, in the same order.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Seconds != defaultSeconds {
		t.Errorf("run_seconds %d, spec.go defaultSeconds %d", f.Seconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, spec.go %q", i, f.Workloads[i].Name, w.name)
		}
	}
	compare := func(kind string, file []fileMetric, spec []metricSpec, bounded bool) {
		if len(file) != len(spec) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(file), len(spec))
		}
		for i, m := range spec {
			g := file[i]
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", kind, m.name)
			}
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: file has %+v, spec.go %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound differs from spec.go (%v)", kind, m.name, m.bound)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, true)
	compare("per_layer", f.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at a hundredth of its size, untraced
// and traced, and checks what the driver and later issues rely on:
// every declared metric is emitted once with a finite value, nothing
// fails, and each workload exercises the one mechanism it is named for.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 7, seconds: 0.2, warmup: 0.05, div: 100, setups: 1, probes: 1, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w.name, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d %v", w.name, traced, r.Correct, r.Failed, r.Attempted, r.notes)
			}
			specs := specsFor(traced)
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(r.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := r.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (emitted %v)", w.name, traced, m.name, v, ok)
				}
			}
			if !traced {
				continue
			}
			fused := r.Metrics["fusion.fused_share"].Value
			switch w.name {
			case "decode_scan":
				if fused != 0 || r.Metrics["prune.pages_pruned_share"].Value != 0 {
					t.Errorf("decode_scan fused %v of its values and pruned %v of its pages; both must be 0", fused, r.Metrics["prune.pages_pruned_share"].Value)
				}
			case "fused_agg":
				if fused != 1 { // fused/(fused+decoded) == 1 exactly when no value was decoded
					t.Errorf("fused_agg decoded values: fused_share %v, want 1", fused)
				}
			case "selective_probe":
				if p := r.Metrics["prune.pages_pruned_share"].Value; p < 0.5 {
					t.Errorf("selective_probe pruned only %v of its pages", p)
				}
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
		}
	}
}

// TestWavePagesPackToTheirWidth holds the generator to its promise on
// many seeds, not one: the driver runs the benchmark with seeds of its
// own, and a page that packs a bit wider than asked fails the width
// probe of the traced run (and shifts decode_scan's width shares).
func TestWavePagesPackToTheirWidth(t *testing.T) {
	vals := make([]int64, pageSize)
	for seed := int64(-50); seed < 150; seed++ {
		for _, w := range waveWidths {
			wavePage(newRNG(seed*1_000_003, 200+uint64(w)), vals, w)
			blk, err := ts2diff.Encode(vals, ts2diff.Order1)
			if err != nil {
				t.Fatal(err)
			}
			if blk.Width != w {
				t.Fatalf("seed %d: wave page packed to width %d, want %d", seed*1_000_003, blk.Width, w)
			}
			if blk.MinValue >= waveCenter-1 || blk.MaxValue <= waveCenter+1 {
				t.Fatalf("seed %d width %d: page [%d, %d] does not straddle the predicate constants", seed*1_000_003, w, blk.MinValue, blk.MaxValue)
			}
		}
	}
}

// TestWrongAnswerIsAFailure corrupts one expected answer and checks
// that every op containing it is counted as failed.
func TestWrongAnswerIsAFailure(t *testing.T) {
	d := fusedAggData(7, 100)
	sys, err := newSystem(d.cols)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	ops := buildOps(d)[:1]
	if p := runOps(sys.engine, ops, 0, 2, 1e9, nil); p.failed != 0 {
		t.Fatalf("honest oracle: %d of %d ops failed", p.failed, p.attempted())
	}
	ops[0][0].want.aggs["SUM(A)"]++
	if p := runOps(sys.engine, ops, 0, 2, 1e9, nil); p.failed != 2 || p.within != 0 {
		t.Fatalf("wrong oracle answer: %d of %d ops failed, %d within limit; want 2 failed, 0 within", p.failed, p.attempted(), p.within)
	}
}

// TestOracleParsesRenderedResults checks the text parser the HTTP
// workload depends on against both result shapes.
func TestOracleParsesRenderedResults(t *testing.T) {
	a, err := parseAnswer("  COUNT(A) = 3\n  SUM(A) = 1.5e+09\n  (2 pages, 0 pruned, 2 jobs, 3 tuples)\n")
	if err != nil || a.aggs["COUNT(A)"] != 3 || a.aggs["SUM(A)"] != 1.5e9 {
		t.Errorf("aggregates: %+v, %v", a, err)
	}
	w, err := parseAnswer("  window 0 [10, 20): 2.5 (4 points)\n  window 1 [20, 30): 0 (0 points)\n  (1 pages, 0 pruned, 1 jobs, 4 tuples)\n")
	if err != nil || len(w.wins) != 2 || w.wins[0] != (winAnswer{2.5, 4}) || w.wins[1] != (winAnswer{0, 0}) {
		t.Errorf("windows: %+v, %v", w, err)
	}
	if _, err := parseAnswer("{\"error\":\"nope\"}"); err == nil {
		t.Error("an error document parsed as a result")
	}
}
